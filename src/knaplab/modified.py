"""The CCA2-hardened variant: prime-sequence knapsack over a safe-prime group.

Three changes against the original cipher: the disguised sequence becomes
pairwise-coprime primes (so the receiver's subset problem has a unique,
divisibility-checkable answer), ciphertext components are reduced mod p, and
the message rides in a separate component C2 = (m + h)^r' keyed by the
encryption randomness r rather than being the knapsack payload itself.
Decryption first recovers r from C1, then re-derives everything an honest
encryptor would have produced and rejects on mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import gcd, prod

from .errors import MalformedCiphertext, ParameterError
from .numtheory import (
    BitVector,
    PrimeSequence,
    gen_prime_sequence,
    gen_safe_prime,
    is_probable_prime,
    mod_inv,
    solve_coprime_subset_product,
)


@dataclass(frozen=True)
class ModifiedPublicKey:
    n: int
    p: int
    s: tuple[int, ...]
    u: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        object.__setattr__(self, "u", tuple(self.u))
        if self.n < 1 or len(self.s) != self.n or len(self.u) != self.n:
            raise ParameterError("component count does not match n")
        if len(set(self.s)) != 1:
            raise ParameterError("all s components must be equal")
        for v in (*self.s, *self.u):
            if not 1 <= v < self.p:
                raise ParameterError("key components must lie in [1, p)")
        q = (self.p - 1) // 2
        if self.p != 2 * q + 1 or not is_probable_prime(self.p) or not is_probable_prime(q):
            raise ParameterError("modulus must be a safe prime")

    @property
    def q(self) -> int:
        return (self.p - 1) // 2

    @property
    def s_value(self) -> int:
        return self.s[0]

    @property
    def max_message(self) -> int:
        return self.p - self.n - 1


@dataclass(frozen=True)
class ModifiedSecretKey:
    p: int
    g: int
    y: int
    x: int
    k: int
    primes: PrimeSequence

    def __post_init__(self):
        if self.y != pow(self.g, self.x, self.p):
            raise ParameterError("y is not g^x mod p")
        if gcd(self.k, self.p - 1) != 1:
            raise ParameterError("k must be invertible mod p-1 so s stays a generator")
        if self.primes.product >= self.p:
            raise ParameterError("modulus must exceed the product of all primes")
        qbits = ((self.p - 1) // 2).bit_length()
        if self.primes.n >= qbits - 1:
            raise ParameterError("n must stay below bitlen(q) - 1 so r' < q")

    @property
    def n(self) -> int:
        return self.primes.n

    @property
    def q(self) -> int:
        return (self.p - 1) // 2

    @property
    def s_value(self) -> int:
        return pow(self.g, self.k, self.p)


@dataclass(frozen=True)
class ModifiedCiphertext:
    c1_prime: int
    c1_dprime: int
    c2: int

    @property
    def c1(self) -> tuple[int, int]:
        return (self.c1_prime, self.c1_dprime)


class RejectReason(Enum):
    RANDOMNESS_INCONSISTENT = "randomness-inconsistent"
    MESSAGE_INCONSISTENT = "message-inconsistent"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class DecryptOutcome:
    """Either a recovered message or a reason-tagged rejection.

    The reason is for lab instrumentation only; anything that leaves the
    library (CLI output, game oracles) collapses every rejection to one
    undifferentiated error symbol.
    """

    message: int | None
    reason: RejectReason | None

    def __post_init__(self):
        if (self.message is None) == (self.reason is None):
            raise ValueError("exactly one of message/reason must be set")

    @classmethod
    def accept(cls, message: int) -> "DecryptOutcome":
        return cls(message=message, reason=None)

    @classmethod
    def reject(cls, reason: RejectReason) -> "DecryptOutcome":
        return cls(message=None, reason=reason)

    @property
    def accepted(self) -> bool:
        return self.message is not None


def keygen(
    n: int, prime_bits: int, rng: random.Random
) -> tuple[ModifiedPublicKey, ModifiedSecretKey]:
    """Fresh key pair: n distinct primes, then a safe prime dominating their product.

    The modulus is sized so that p > prod(p_i) and bitlen(q) - 1 > n; the
    second bound keeps every possible r' below q, which together with r'
    being forced odd guarantees gcd(r', p-1) = 1 at decryption time.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    primes = gen_prime_sequence(n, prime_bits, rng)
    bits = max(primes.product.bit_length() + 1, n + 3)
    group = gen_safe_prime(bits, rng)
    p, g = group.p, group.g
    x = rng.randrange(2, p - 2)
    while True:
        k = rng.randrange(2, p - 2)
        if gcd(k, p - 1) == 1:
            break
    return _assemble(group, x, k, primes)


def keypair_from_params(
    p: int, g: int, x: int, k: int, prime_terms
) -> tuple[ModifiedPublicKey, ModifiedSecretKey]:
    from .numtheory import SafePrimeGroup

    group = SafePrimeGroup(p, (p - 1) // 2, g)
    return _assemble(group, x, k, PrimeSequence(tuple(prime_terms)))


def _assemble(group, x, k, primes):
    p, g = group.p, group.g
    y = pow(g, x, p)
    s = pow(g, k, p)
    yk = pow(y, k, p)
    u = tuple(yk * pi % p for pi in primes)
    pub = ModifiedPublicKey(n=primes.n, p=p, s=(s,) * primes.n, u=u)
    sec = ModifiedSecretKey(p=p, g=g, y=y, x=x, k=k, primes=primes)
    return pub, sec


def _parity_adjust(r_int: int) -> int:
    return r_int + 1 if r_int % 2 == 0 else r_int


def encrypt_with_randomness(
    pk: ModifiedPublicKey, m: int, r: BitVector
) -> ModifiedCiphertext:
    """Deterministic core of encryption, with the randomness pinned by the caller."""
    if len(r) != pk.n:
        raise ParameterError(f"randomness length {len(r)} != n = {pk.n}")
    if r.as_int < 2:
        raise ParameterError("randomness must not be the integer 0 or 1")
    if not 1 <= m <= pk.max_message:
        raise ParameterError(f"message must lie in [1, {pk.max_message}]")
    h = r.weight
    r_prime = _parity_adjust(r.as_int)
    c1_prime = prod((si for si, b in zip(pk.s, r) if b), start=1) % pk.p
    c1_dprime = prod((ui for ui, b in zip(pk.u, r) if b), start=1) % pk.p
    c2 = pow(m + h, r_prime, pk.p)
    return ModifiedCiphertext(c1_prime, c1_dprime, c2)


def encrypt(pk: ModifiedPublicKey, m: int, rng: random.Random) -> ModifiedCiphertext:
    """Randomized encryption: fresh n-bit r (excluding the integers 0 and 1).

    C1 commits to the bits of r through the knapsack pairs; C2 carries the
    message blinded as (m + h)^r' where r' is r forced odd.  The message cap
    p - n - 1 keeps m + h inside [1, p-1] so the exponentiation never hits 0
    and decryption's integer subtraction cannot wrap.
    """
    r = BitVector.from_int(rng.randrange(2, 1 << pk.n), pk.n)
    return encrypt_with_randomness(pk, m, r)


def recover_randomness(
    sk: ModifiedSecretKey, c1_prime: int, c1_dprime: int
) -> tuple[BitVector, int]:
    """Strip the ElGamal mask and factor the survivor over the key primes.

    d = C1'' * (C1'^x)^(-1) equals the subset product of the r-selected
    primes for honest ciphertexts; divisibility by each key prime then reads
    the bits back (their pairwise coprimality makes that sound).
    """
    c1x = pow(c1_prime, sk.x, sk.p)
    if c1x == 0:
        raise MalformedCiphertext("C1' shares a factor with the modulus")
    d = c1_dprime * mod_inv(c1x, sk.p) % sk.p
    if d == 0:
        raise MalformedCiphertext("C1'' shares a factor with the modulus")
    r_hat, _ = solve_coprime_subset_product(sk.primes, d)
    return r_hat, r_hat.weight


def decrypt(sk: ModifiedSecretKey, ct: ModifiedCiphertext) -> DecryptOutcome:
    """Recover r from C1, cross-check both ciphertext halves, then unblind m.

    The first consistency check re-derives C1'' from the recovered bits and
    the secret mask; it is what stops tampering with C1.  The second check
    re-raises the recovered m + h to r' and compares against C2 as received.
    """
    p = sk.p
    for v in (ct.c1_prime, ct.c1_dprime, ct.c2):
        if not 1 <= v < p:
            return DecryptOutcome.reject(RejectReason.MALFORMED)
    try:
        r_hat, h_hat = recover_randomness(sk, ct.c1_prime, ct.c1_dprime)
    except (MalformedCiphertext, ValueError):
        return DecryptOutcome.reject(RejectReason.MALFORMED)
    if r_hat.as_int < 2:
        # honest encryptors never use the integers 0 or 1 as randomness
        return DecryptOutcome.reject(RejectReason.RANDOMNESS_INCONSISTENT)
    expected_c1_dprime = (
        pow(sk.y, sk.k * h_hat, p)
        * prod((pi for pi, b in zip(sk.primes, r_hat) if b), start=1)
        % p
    )
    if ct.c1_dprime != expected_c1_dprime:
        return DecryptOutcome.reject(RejectReason.RANDOMNESS_INCONSISTENT)
    r_prime = _parity_adjust(r_hat.as_int)
    try:
        w = mod_inv(r_prime, p - 1)
    except ValueError:
        return DecryptOutcome.reject(RejectReason.MALFORMED)
    m_hat = pow(ct.c2, w, p) - h_hat
    if not 1 <= m_hat <= p - sk.n - 1:
        # outside the encryptable range, so no honest ciphertext decodes here
        return DecryptOutcome.reject(RejectReason.MESSAGE_INCONSISTENT)
    if ct.c2 != pow(m_hat + h_hat, r_prime, p):
        return DecryptOutcome.reject(RejectReason.MESSAGE_INCONSISTENT)
    return DecryptOutcome.accept(m_hat)
