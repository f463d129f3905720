"""Exact big-integer number theory shared by both ciphers and the attacks.

Everything here is arbitrary precision and side-effect free; randomized
operations take an explicit ``random.Random`` so callers control seeding.
The two knapsack solvers (greedy subset sum over a super-increasing
sequence, divisibility-based subset product over pairwise-coprime factors)
are the workhorses the schemes and attacks are built on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

__all__ = [
    "BitVector",
    "SuperIncreasingSeq",
    "PrimeSequence",
    "SafePrimeGroup",
    "mod_inv",
    "gcd",
    "is_probable_prime",
    "is_safe_prime",
    "gen_safe_prime",
    "gen_prime_sequence",
    "gen_superincreasing",
    "solve_superincreasing_subset_sum",
    "solve_coprime_subset_product",
    "binomial",
    "binary_entropy",
    "entropy_bound",
    "power_index",
]


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


_TRIAL_PRIMES = _sieve(1000)
_TRIAL_LIMIT = 1000 * 1000  # below this, trial division is exact


@dataclass(frozen=True, order=True)
class BitVector:
    """An ordered 0/1 vector; position j holds the bit the math indexes as j+1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) < 1:
            raise ValueError("bit vector must be non-empty")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bit vector entries must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        """Big-endian: the first bit is the 2^(n-1) digit of ``value``."""
        if value < 0 or value >= 1 << n:
            raise ValueError(f"{value} does not fit in {n} bits")
        return cls(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        bits = [0] * n
        for j in indices:
            bits[j] = 1
        return cls(tuple(bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def as_int(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def support(self) -> tuple[int, ...]:
        """0-based positions of the set bits."""
        return tuple(j for j, b in enumerate(self.bits) if b)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, j):
        return self.bits[j]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class SuperIncreasingSeq:
    """Positive integers where every term exceeds the sum of all earlier ones."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise ValueError("sequence must be non-empty")
        total = 0
        for i, t in enumerate(self.terms):
            if t < 1:
                raise ValueError(f"term {i + 1} is not positive")
            if t <= total:
                raise ValueError(f"term {i + 1} does not exceed the sum of earlier terms")
            total += t

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def total(self) -> int:
        return sum(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


@dataclass(frozen=True)
class PrimeSequence:
    """Distinct primes; pairwise coprimality makes the subset product easy."""

    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        if len(self.primes) < 1:
            raise ValueError("prime sequence must be non-empty")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be pairwise distinct")
        for p in self.primes:
            if not is_probable_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def product(self) -> int:
        return prod(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)


@dataclass(frozen=True)
class SafePrimeGroup:
    """p = 2q + 1 with q prime, and g generating all of Z_p^*.

    Constructing one certifies the group (see ``is_safe_prime``); keys built
    from a group, or parsed through one, need no further primality test.

    An element of order dividing 2q that is neither a square root of 1 nor a
    q-th root of 1 must have full order 2q, so two exponentiations certify g.
    """

    p: int
    q: int
    g: int

    def __post_init__(self):
        if self.p != 2 * self.q + 1:
            raise ValueError("p must equal 2q + 1")
        if not is_safe_prime(self.p):
            raise ValueError("p must be a safe prime")
        if not 1 < self.g < self.p:
            raise ValueError("generator out of range")
        if pow(self.g, 2, self.p) == 1 or pow(self.g, self.q, self.p) == 1:
            raise ValueError("g does not generate the full group")


def mod_inv(a: int, modulus: int) -> int:
    """The w with a*w = 1 (mod modulus); raises if no inverse exists."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {modulus}") from None


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin: False is certain, True errs with probability <= 4**-rounds.

    Exact (trial division) below 10^6.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 2:
        return False
    for sp in _TRIAL_PRIMES:
        if n % sp == 0:
            return n == sp
    if n < _TRIAL_LIMIT:
        return True
    draw = rng.randrange if rng is not None else random.randrange
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for i in range(rounds):
        a = 2 if i == 0 else draw(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_safe_prime(p: int) -> bool:
    """Whether p = 2q + 1 with q and p prime, at one Miller-Rabin certification.

    q gets the full 40 rounds; p is then proven by Pocklington's criterion
    (Crandall & Pomerance, *Prime Numbers*, Thm 4.1.3): the prime q divides
    p - 1 and exceeds sqrt(p) - 1, so the witness 2 proves p prime when
    2^(p-1) = 1 (mod p) and gcd(2^2 - 1, p) = 1, i.e. 3 does not divide p.
    Every safe prime passes both, so given q the answer for p is exact.
    """
    q = (p - 1) // 2
    if p != 2 * q + 1 or not is_probable_prime(q):
        return False
    return p % 3 != 0 and pow(2, p - 1, p) == 1


def _find_generator(p: int, q: int, rng: random.Random) -> int:
    while True:
        g = rng.randrange(2, p - 1)
        if pow(g, 2, p) != 1 and pow(g, q, p) != 1:
            return g


# skip 2 and 3: the q = 5 (mod 6) wheel already excludes their multiples
_SIEVE_PRIMES = tuple(
    (sp, pow(6, -1, sp), pow(12, -1, sp)) for sp in _sieve(1 << 13)[2:]
)
_WINDOW = 4096


def gen_safe_prime(bit_length: int, rng: random.Random, rounds: int = 40) -> SafePrimeGroup:
    """Random safe-prime group with p of exactly ``bit_length`` bits.

    Candidates q are stepped along the q = 5 (mod 6) wheel (forced for any
    safe prime above 7) and a window of them is sieved jointly on the q and
    2q+1 lines before Miller-Rabin, which keeps generation fast enough to do
    per-trial key generation in the experiment harnesses.  ``rounds`` caps
    the search-phase screening; the returned group is always certified by
    the SafePrimeGroup constructor (40 rounds on q, a Pocklington proof of p).
    """
    if bit_length < 4:
        raise ValueError("bit_length must be >= 4")
    qbits = bit_length - 1
    screen = min(rounds, 2)  # cheap pre-filter; the constructor certifies fully
    if bit_length <= 16:
        # tiny groups: plain rejection sampling, the window would overshoot
        while True:
            q = rng.randrange(1 << (qbits - 1), 1 << qbits) | 1
            if q % 6 != 5:
                continue
            if is_probable_prime(q, screen, rng) and is_probable_prime(2 * q + 1, screen, rng):
                try:
                    return SafePrimeGroup(2 * q + 1, q, _find_generator(2 * q + 1, q, rng))
                except ValueError:
                    continue
    while True:
        base = rng.randrange(1 << (qbits - 1), (1 << qbits) - 6 * _WINDOW)
        base += (5 - base) % 6
        dead = bytearray(_WINDOW)
        for sp, inv6, inv12 in _SIEVE_PRIMES:
            j = (-base * inv6) % sp  # q-line hits
            dead[j::sp] = b"\x01" * len(range(j, _WINDOW, sp))
            j = (-(2 * base + 1) * inv12) % sp  # 2q+1-line hits
            dead[j::sp] = b"\x01" * len(range(j, _WINDOW, sp))
        for j in range(_WINDOW):
            if dead[j]:
                continue
            q = base + 6 * j
            p = 2 * q + 1
            if not (is_probable_prime(q, screen, rng) and is_probable_prime(p, screen, rng)):
                continue
            try:
                return SafePrimeGroup(p, q, _find_generator(p, q, rng))
            except ValueError:
                continue


@lru_cache(maxsize=8)
def _primes_with_bits(bits: int) -> tuple[int, ...]:
    return tuple(p for p in _sieve(1 << bits) if p.bit_length() == bits)


def gen_prime_sequence(
    n: int, bits_each: int, rng: random.Random, rounds: int = 40
) -> PrimeSequence:
    """n distinct primes of exactly ``bits_each`` bits.

    Refuses (rather than spinning forever) when fewer than n primes of that
    size exist; the count is exact for sizes small enough to sieve.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if bits_each < 2:
        raise ValueError("no primes below 2 bits")
    if bits_each <= 20:
        population = _primes_with_bits(bits_each)
        if n > len(population):
            raise ValueError(
                f"only {len(population)} primes have {bits_each} bits, cannot pick {n}"
            )
        return PrimeSequence(tuple(rng.sample(population, n)))
    picked: list[int] = []
    seen: set[int] = set()
    attempts = 0
    while len(picked) < n:
        attempts += 1
        if attempts > 10000 * n:
            raise ValueError(f"could not find {n} distinct {bits_each}-bit primes")
        c = rng.randrange(1 << (bits_each - 1), 1 << bits_each) | 1
        if c not in seen and is_probable_prime(c, rounds, rng):
            picked.append(c)
            seen.add(c)
    return PrimeSequence(tuple(picked))


def gen_superincreasing(n: int, rng: random.Random, max_step: int = 10) -> SuperIncreasingSeq:
    """Random super-increasing sequence; each term beats the running sum by <= max_step."""
    if n < 1:
        raise ValueError("need n >= 1")
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    terms = []
    total = 0
    for _ in range(n):
        t = total + rng.randint(1, max_step)
        terms.append(t)
        total += t
    return SuperIncreasingSeq(tuple(terms))


def solve_superincreasing_subset_sum(seq: SuperIncreasingSeq, s: int) -> BitVector | None:
    """Greedy largest-first solver; None when no subset sums to s.

    Walks the terms from last to first, taking a term whenever it still fits.
    Super-increase makes the take forced, so the indicator found is the
    unique solution whenever one exists.
    """
    if s < 0:
        raise ValueError("target must be non-negative")
    bits = [0] * seq.n
    remaining = s
    for i in range(seq.n - 1, -1, -1):
        if remaining >= seq.terms[i]:
            bits[i] = 1
            remaining -= seq.terms[i]
    if remaining != 0:
        return None
    return BitVector(tuple(bits))


def solve_coprime_subset_product(seq: PrimeSequence, d: int) -> tuple[BitVector, bool]:
    """Divisibility solver: bit i is set iff primes[i] divides d.

    The second value reports whether the selected primes multiply to exactly
    d; False means d carries factors from outside the sequence (callers
    auditing hostile inputs need to see that rather than an exception).
    """
    if d < 1:
        raise ValueError("target must be positive")
    bits = tuple(1 if d % pi == 0 else 0 for pi in seq.primes)
    exact = prod(pi for pi, b in zip(seq.primes, bits) if b) == d
    return BitVector(bits), exact


def binomial(n: int, h: int) -> int:
    """Exact n choose h."""
    if n < 0 or h < 0 or h > n:
        raise ValueError(f"need 0 <= h <= n, got n={n}, h={h}")
    return math.comb(n, h)


def binary_entropy(lam: float) -> float:
    """H(lam) in bits, with H(0) = H(1) = 0."""
    if lam < 0 or lam > 1:
        raise ValueError(f"entropy argument must lie in [0, 1], got {lam}")
    if lam == 0 or lam == 1:
        return 0.0
    return -lam * math.log2(lam) - (1 - lam) * math.log2(1 - lam)


def entropy_bound(n: int, h: int) -> float:
    """2^(n*H(h/n)): the entropy upper bound on n choose h."""
    if n < 0 or h < 0 or h > n:
        raise ValueError(f"need 0 <= h <= n, got n={n}, h={h}")
    if n == 0:
        return 1.0
    return 2.0 ** (n * binary_entropy(h / n))


def power_index(base: int, target: int, max_exp: int) -> int | None:
    """Smallest e in [0, max_exp] with base**e == target over the integers."""
    if base < 2:
        raise ValueError("base must be >= 2")
    value = 1
    for e in range(max_exp + 1):
        if value == target:
            return e
        if value > target:
            return None
        value *= base
    return None
