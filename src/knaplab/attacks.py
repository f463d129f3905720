"""Message-recovery attacks on the knapsack ciphertexts, public key only.

The constant first component of every public pair leaks the Hamming weight
of whatever was encrypted (C1 is just s^h), which collapses the search space
from 2^n to n-choose-h.  The exhaustive attack walks exactly that space; the
meet-in-the-middle attack trades memory for time by splitting the index set
and matching half-products, and also runs against the hardened scheme's
reduced C1'' component, where it is the birthday search that dictates how
large n must be.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import MalformedCiphertext, ParameterError
from .numtheory import (
    BitVector,
    binary_entropy,
    binomial,
    entropy_bound,
    mod_inv,
    power_index,
)
from .schemes import scheme_of

DEFAULT_MAX_LIST_ENTRIES = 1 << 22


@dataclass(frozen=True)
class AttackReport:
    recovered_h: int
    candidates: tuple[BitVector, ...]
    subsets_examined: int
    predicted_bound: float
    elapsed: float


@dataclass(frozen=True)
class ComplexityProfile:
    exact: int
    bound: float
    regime: str  # "small" | "medium" | "large"


def recover_hamming_weight(pk, c1: int) -> int:
    """Weight of the encrypted vector, read off C1 = s^h.

    Unreduced ciphertexts make this a strictly increasing integer scan; the
    hardened scheme reduces mod p, where scanning s^1..s^n mod p is the
    degenerate baby-step giant-step over the only n possible exponents.
    """
    n, s = pk.n, pk.s_value
    if scheme_of(pk).reduced:
        t = 1
        for h in range(1, n + 1):
            t = t * s % pk.p
            if t == c1:
                return h
    else:
        h = power_index(s, c1, n)
        if h:  # C1 = 1 is s^0, which no encryption produces
            return h
    raise MalformedCiphertext(f"C1 is not s^h for any h in [1, {n}]")


def _weight_and_target(pk, ct) -> tuple[int, int, int | None]:
    """(h, the product to match, the modulus it is reduced by or None)."""
    scheme = scheme_of(pk)
    if type(ct) is not scheme.ciphertext:
        raise ParameterError("ciphertext does not belong to this key")
    c1, target = scheme.attack_target(ct)
    return recover_hamming_weight(pk, c1), target, pk.p if scheme.reduced else None


def _subset_products(values, indices, weight_cap):
    """All (index-tuple, product) over the given positions, weight <= cap."""
    out = [((), 1)]
    for j in indices:
        extend = [(idx + (j,), pr * values[j]) for idx, pr in out if len(idx) < weight_cap]
        out.extend(extend)
    return out


def exhaustive_subset_attack(pk, ct) -> AttackReport:
    """Enumerate weight-h index subsets until every product match is found.

    Candidates are complete: every subset reproducing the target component
    is returned, since ambiguous decryptions are part of what the lab
    measures.  subsets_examined counts fully-built weight-h products, so
    pruning only ever lowers it below n-choose-h.
    """
    start = time.perf_counter()
    h, target, modulus = _weight_and_target(pk, ct)
    n, u = pk.n, pk.u
    found: list[BitVector] = []
    examined = 0

    def walk(idx: int, chosen: tuple[int, ...], partial: int):
        nonlocal examined
        if len(chosen) == h:
            examined += 1
            if partial == target:
                found.append(BitVector.from_indices(n, chosen))
            return
        if n - idx < h - len(chosen):
            return
        for j in range(idx, n):
            nxt = partial * u[j]
            if modulus is None:
                if nxt > target:
                    continue  # unreduced products only grow; branch is dead
                walk(j + 1, chosen + (j,), nxt)
            else:
                walk(j + 1, chosen + (j,), nxt % modulus)

    walk(0, (), 1)
    return AttackReport(
        recovered_h=h,
        candidates=tuple(sorted(found)),
        subsets_examined=examined,
        predicted_bound=entropy_bound(n, h),
        elapsed=time.perf_counter() - start,
    )


def mitm_subset_attack(
    pk,
    ct,
    split: int | None = None,
    *,
    max_list_entries: int = DEFAULT_MAX_LIST_ENTRIES,
) -> AttackReport:
    """Meet-in-the-middle over a left/right index split.

    Builds every subset product over indices [0, split) and [split, n), then
    matches pairs whose combined product hits the target (by exact division
    for unreduced ciphertexts, by modular inversion for reduced ones).  The
    candidate set equals the exhaustive attack's; only the cost profile
    changes.  subsets_examined counts list entries, not pairs.
    """
    start = time.perf_counter()
    n = pk.n
    if split is None:
        split = n // 2
    if not 1 <= split < n:
        raise ParameterError(f"split must lie in [1, {n - 1}]")
    if (1 << split) + (1 << (n - split)) > max_list_entries:
        raise ParameterError("split exceeds the configured memory cap")
    h, target, modulus = _weight_and_target(pk, ct)
    u = pk.u
    left = _subset_products(u, range(split), h)
    right = _subset_products(u, range(split, n), h)
    by_product: dict[int, list[tuple[int, ...]]] = {}
    for idx, pr in left:
        key = pr if modulus is None else pr % modulus
        by_product.setdefault(key, []).append(idx)
    found = []
    for idx, pr in right:
        if modulus is None:
            if target % pr != 0:
                continue
            want = target // pr
        else:
            want = target * mod_inv(pr % modulus, modulus) % modulus
        for lidx in by_product.get(want, ()):
            if len(lidx) + len(idx) == h:
                found.append(BitVector.from_indices(n, lidx + idx))
    return AttackReport(
        recovered_h=h,
        candidates=tuple(sorted(found)),
        subsets_examined=len(left) + len(right),
        predicted_bound=entropy_bound(n, h),
        elapsed=time.perf_counter() - start,
    )


def attack_complexity_profile(
    n: int, h: int, *, medium_entropy_threshold: float = 0.9
) -> ComplexityProfile:
    """Classify n-choose-h against the entropy bound.

    "medium" marks the band where the bound approaches 2^n and enumeration
    stops being realistic; below the threshold the side of n/2 decides
    between "small" and "large".
    """
    exact = binomial(n, h)
    bound = entropy_bound(n, h)
    if n > 0 and binary_entropy(h / n) > medium_entropy_threshold:
        regime = "medium"
    elif h <= n / 2:
        regime = "small"
    else:
        regime = "large"
    return ComplexityProfile(exact=exact, bound=bound, regime=regime)

