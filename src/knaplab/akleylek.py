"""The original ElGamal-disguised multiplicative-knapsack cipher.

This is the attack target, implemented with its published quirks intact:
encryption is deterministic, ciphertext components are kept as unreduced
integer products, and nothing stops the secret sequence terms from dividing
one another.  The audit and attack modules depend on those quirks, so do
not "fix" them here.

Keys disguise a super-increasing sequence a_1..a_n: the public pairs are
(s, u_i) with s = g^k and u_i = y^k * a_i (mod p), so a legitimate receiver
can strip the y^k mask with x while outsiders face a subset problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .disguise import DisguisedPublicKey, DisguisedSecretKey, assemble
from .errors import MalformedCiphertext, ParameterError
from .numtheory import (
    BitVector,
    SafePrimeGroup,
    SuperIncreasingSeq,
    divisor_subsets,
    gen_safe_prime,
    gen_superincreasing,
    power_index,
)

DEFAULT_EXHAUSTIVE_LIMIT = 20


class AkleylekPublicKey(DisguisedPublicKey):
    """The original cipher's public key; dispatch and tracing read its class name."""


@dataclass(frozen=True)
class AkleylekSecretKey(DisguisedSecretKey):
    a: SuperIncreasingSeq

    @property
    def n(self) -> int:
        return self.a.n


@dataclass(frozen=True)
class AkleylekCiphertext:
    c1: int
    c2: int

    def __post_init__(self):
        if self.c1 < 1 or self.c2 < 1:
            raise MalformedCiphertext("ciphertext components must be positive")


@dataclass(frozen=True)
class AuditReport:
    """Exhaustive census of the 2^n message space for one key pair."""

    n: int
    p: int
    # (product, every message whose selected terms multiply to it), >= 2 members each
    collision_groups: tuple[tuple[int, tuple[BitVector, ...]], ...]
    overflow_messages: tuple[BitVector, ...]
    unique_fraction: float


def keygen(
    n: int,
    modulus_bits: int,
    rng: random.Random,
    *,
    max_step: int = 10,
    enforce_capacity: bool = True,
) -> tuple[AkleylekPublicKey, AkleylekSecretKey]:
    """Fresh key pair over a random safe-prime group.

    With enforce_capacity the product of all sequence terms must have fewer
    than modulus_bits bits, and p has exactly that many, so p exceeds it and
    every subset product survives the final reduction; pass False to
    reproduce the undersized-modulus failure mode on purpose.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    a = gen_superincreasing(n, rng, max_step=max_step)
    capacity = prod(a.terms)
    if enforce_capacity and capacity.bit_length() >= modulus_bits:
        raise ParameterError(
            f"modulus_bits={modulus_bits} cannot dominate the sequence product "
            f"({capacity.bit_length()} bits); raise modulus_bits or shrink max_step"
        )
    group = gen_safe_prime(modulus_bits, rng)
    x, k = rng.randrange(1, group.p - 1), rng.randrange(1, group.p - 1)
    return assemble(AkleylekPublicKey, AkleylekSecretKey, group, x, k, a)


def keypair_from_params(
    p: int, g: int, x: int, k: int, a_terms
) -> tuple[AkleylekPublicKey, AkleylekSecretKey]:
    """Rebuild the key pair from fixed components (fixture keys, test vectors)."""
    group = SafePrimeGroup(p, g)
    a = SuperIncreasingSeq(tuple(a_terms))
    return assemble(AkleylekPublicKey, AkleylekSecretKey, group, x, k, a)


def encrypt(pk: AkleylekPublicKey, m: BitVector) -> AkleylekCiphertext:
    """C = (prod s^m_i, prod u_i^m_i) over the integers, no reduction.

    Deterministic by construction.  The all-zero message is refused: it
    would encrypt to (1, 1) regardless of the key.
    """
    if len(m) != pk.n:
        raise ParameterError(f"message length {len(m)} != n = {pk.n}")
    if m.weight == 0:
        raise ParameterError("all-zero message is not encryptable")
    c1 = prod(si for si, b in zip(pk.s, m) if b)
    c2 = prod(ui for ui, b in zip(pk.u, m) if b)
    return AkleylekCiphertext(c1, c2)


def decrypt_d(sk: AkleylekSecretKey, ct: AkleylekCiphertext) -> int:
    """The masked subset product d = C2 * (C1^x)^(-1) mod p."""
    return sk.unmask(ct.c1, ct.c2)


def decrypt_all(
    sk: AkleylekSecretKey,
    ct: AkleylekCiphertext,
    *,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> tuple[BitVector, ...]:
    """Every message the ciphertext can decode to, in canonical order.

    The unreduced C1 pins the Hamming weight h (it is s^h), so the search
    runs over weight-h subsets of the sequence whose product equals d.  An
    empty result is a decryption failure; two or more results mean the key
    cannot decode this ciphertext uniquely.

    Once h is read, d = C2 * (y^k)^(-h) mod p, which equals decrypt_d's
    C2 * (C1^x)^(-1) without raising C1 to x, and the matches are
    numtheory.divisor_subsets of the secret terms and d, the walk the
    divisor attack runs on the public u_i and C2.
    """
    n, s = sk.n, sk.s_value
    if n > limit:
        raise ParameterError(f"n={n} exceeds the exhaustive scan limit {limit}")
    if s < 2:
        raise ParameterError(f"s = {s} makes C1 = {s} for every weight, so C1 cannot reveal h")
    h = power_index(s, ct.c1, n)
    if h is None:
        return ()
    try:
        d = sk.unmask_weight(h, ct.c2)
    except (MalformedCiphertext, ValueError):
        return ()
    found, _ = divisor_subsets(sk.a.terms, d, h)
    return tuple(sorted(BitVector.from_indices(n, chosen) for chosen in found))


def completeness_audit(
    sk: AkleylekSecretKey,
    pk: AkleylekPublicKey | None = None,
    *,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> AuditReport:
    """Scan all 2^n messages for colliding subset products and modulus overflow.

    A message decodes uniquely iff its product stays below p and no other
    message of the same weight shares the product (the weight is public via
    C1, so only same-weight collisions are real ambiguities).  Collision
    groups are reported across all weights, since they are what make the
    sequence defective.
    """
    n = sk.n
    if n > limit:
        raise ParameterError(f"n={n} exceeds the exhaustive scan limit {limit}")
    if pk is not None:
        expect = tuple(sk.mask * ai % sk.p for ai in sk.a.terms)
        if pk.u != expect or pk.s_value != sk.s_value or pk.p != sk.p:
            raise ParameterError("public key does not match the secret key")
    terms = sk.a.terms
    by_product: dict[int, list[BitVector]] = {}
    by_weight_product: dict[tuple[int, int], int] = {}
    overflow: list[BitVector] = []
    entries = []
    for mask in range(1 << n):
        m = BitVector.from_indices(n, [j for j in range(n) if mask >> j & 1])
        product = prod((terms[j] for j in range(n) if mask >> j & 1), start=1)
        entries.append((m, product))
        by_product.setdefault(product, []).append(m)
        key = (m.weight, product)
        by_weight_product[key] = by_weight_product.get(key, 0) + 1
        if product >= sk.p:
            overflow.append(m)
    unique = sum(
        1
        for m, product in entries
        if product < sk.p and by_weight_product[(m.weight, product)] == 1
    )
    groups = tuple(
        (product, tuple(sorted(members)))
        for product, members in sorted(by_product.items())
        if len(members) >= 2
    )
    return AuditReport(
        n=n,
        p=sk.p,
        collision_groups=groups,
        overflow_messages=tuple(sorted(overflow)),
        unique_fraction=unique / (1 << n),
    )
