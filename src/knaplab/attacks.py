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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, takewhile
from math import comb, prod

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

MAX_LIST_ENTRIES = 1 << 22  # MITM memory cap: list entries summed over both halves
FILTER_MODULUS = 1073741789  # largest prime below 2^30: one CPython digit per residue
MEDIUM_ENTROPY_THRESHOLD = 0.9  # binary entropy of h/n above which the regime is "medium"


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
    A key with s = 1, which an uncertified original key file may carry,
    makes C1 = 1 for every weight and is refused.
    """
    n, s = pk.n, pk.s_value
    if s == 1:
        raise ParameterError("s = 1 makes C1 = 1 for every weight, so C1 cannot reveal h")
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


def _weight_and_target(pk, ct) -> tuple[int, int, bool]:
    """(h, the product to match, whether that product is reduced mod p)."""
    scheme = scheme_of(pk, ct)
    c1, target = scheme.attack_target(ct)
    if scheme.reduced and not 1 <= target < pk.p:
        raise MalformedCiphertext("the subset-product component must lie in [1, p)")
    return recover_hamming_weight(pk, c1), target, scheme.reduced


def exhaustive_subset_attack(pk, ct) -> AttackReport:
    """Enumerate weight-h index subsets until every product match is found.

    Candidates are complete: every subset reproducing the target component
    is returned, since ambiguous decryptions are part of what the lab
    measures.  subsets_examined counts the weight-h subsets the walk
    decides, so pruning only ever lowers it below n-choose-h.

    An unreduced target T is matched with the u_i in ascending order.  In
    place of the partial product P the walk carries cap = T // P and whether
    P divides T; a child takes divmod(cap, u_i), since floor(floor(T/a)/b)
    equals floor(T/(ab)).  A last factor u_i is examined iff u_i <= cap,
    that is iff the full product is at most T, and it matches iff P divides
    T and u_i == cap.  A loop that still has to pick k factors ends at the
    first i where u_i * ... * u_(i+k-1), the smallest completion, exceeds
    cap: no subset below it or to its right can be examined.  So a subset
    is examined iff its full product is at most the target, the same count
    as an index-order walk.

    Up to h = 3 each examined subset is visited.  From h = 4 on, the node
    with two factors left decides its subsets without visiting them: it
    bisects rows[i], the products u_i * u_j for j > i built once per call
    (ascending, as u is), for cap.  The entries <= cap are exactly the
    subsets examined under that i, since P * u_i * u_j <= T iff
    u_i * u_j <= cap, and when P divides T the entries equal to cap are
    every match, ties included.  Each row is cut at T // (u_0 * ... *
    u_(h-3)), the largest cap a two-left node can see.  A row entry costs
    one multiplication, about half the divmod it replaces, so rows pay
    only when many prefixes reuse them: the C(n, h-2) prefixes outnumber
    the C(n, 2) row entries iff h >= 4.  A target reduced mod p admits no
    such bound, so that walk builds every product mod p and examines all
    n-choose-h subsets.
    """
    start = time.perf_counter()
    h, target, reduced = _weight_and_target(pk, ct)
    n, p = pk.n, pk.p
    order = sorted(range(n), key=pk.u.__getitem__)
    u = [pk.u[j] for j in order]
    bit = [1 << (n - 1 - j) for j in order]  # masks are BitVector.from_int values
    found: list[int] = []
    examined = 0
    rows: list[list[int]] = []  # filled only for an unreduced walk with h >= 4

    def walk_reduced(first: int, left: int, mask: int, partial: int):
        nonlocal examined
        if left == 1:  # the last factor: each step builds a full subset
            for i in range(first, n):
                examined += 1
                if partial * u[i] % p == target:
                    found.append(mask | bit[i])
            return
        for i in range(first, n - left + 1):
            walk_reduced(i + 1, left - 1, mask | bit[i], partial * u[i] % p)

    def walk(first: int, left: int, mask: int, cap: int, exact: bool):
        nonlocal examined
        if left == 1:  # the last factor: each step decides one full subset
            for i in range(first, n):
                ui = u[i]
                if ui > cap:
                    break
                examined += 1
                if exact and ui == cap:
                    found.append(mask | bit[i])
            return
        if left == 2 and rows:  # the last two factors: u_i * u_j <= cap, counted by bisection
            for i in range(first, n - 1):
                row = rows[i]
                stop = bisect_right(row, cap)
                if not stop:
                    break
                examined += stop
                if exact and row[stop - 1] == cap:
                    head = mask | bit[i]
                    for j in range(bisect_left(row, cap, 0, stop), stop):
                        found.append(head | bit[i + 1 + j])
            return
        smallest = least[left]
        for i in range(first, n - left + 1):
            if smallest[i] > cap:
                break
            quotient, remainder = divmod(cap, u[i])
            walk(i + 1, left - 1, mask | bit[i], quotient, exact and not remainder)

    if reduced:
        walk_reduced(0, h, 0, 1)
    else:
        # least[k][i] = u_i * ... * u_(i+k-1), the smallest product of k factors from i on
        least = [[], u]
        for k in range(2, h + 1):
            least.append([a * b for a, b in zip(u, least[-1][1:])])
        if h >= 4:
            # rows[i] = u_i * u_j for j > i, ascending, cut at the largest cap a two-left node sees
            bound = target // least[h - 2][0]
            rows = [
                list(takewhile(bound.__ge__, map(ui.__mul__, u[i + 1 :])))
                for i, ui in enumerate(u)
            ]
        walk(0, h, 0, target, True)
    return AttackReport(
        recovered_h=h,
        candidates=tuple(BitVector.from_int(mask, n) for mask in sorted(found)),
        subsets_examined=examined,
        predicted_bound=entropy_bound(n, h),
        elapsed=time.perf_counter() - start,
    )


def _products_by_weight(factors, bits, p: int, first: int, weight_cap: int):
    """Per weight w <= cap, parallel lists of subset masks and of first * their product mod p."""
    masks: list[list[int]] = [[0]] + [[] for _ in range(weight_cap)]
    products: list[list[int]] = [[first % p]] + [[] for _ in range(weight_cap)]
    for factor, bit in zip(factors, bits):
        for w in range(weight_cap, 0, -1):  # descending: level w-1 is still without bit
            masks[w].extend(map(bit.__or__, masks[w - 1]))
            products[w].extend(map(p.__rmod__, map(factor.__mul__, products[w - 1])))
    return masks, products


def mitm_subset_attack(pk, ct, split: int | None = None) -> AttackReport:
    """Meet-in-the-middle over a left/right index split, matched mod a prime q.

    The left list holds every subset product over indices [0, split) mod q,
    keyed by weight.  The right list starts at the target and multiplies in
    the precomputed inverses of u_split..u_(n-1), so a right subset R of
    weight w holds target / prod(u_R) mod q, which is exactly the product a
    left subset of weight h - w must have.  Each weight pair is matched by
    intersecting the two sets of products; only on a hit are both lists
    filtered, so every left and every right subset sharing a hit product
    is paired.

    A target reduced mod p (C1'' of the hardened scheme) is matched with
    q = p, where the congruence is the whole equation.  An unreduced
    target is an exact integer product, so there the congruence is only a
    filter and q = FILTER_MODULUS, whose residues each fit one CPython
    digit.  Every exact solution passes it while no u_i is a multiple of
    q, and each hit is confirmed by its integer product before it counts.
    A key with such a u_i falls back to q = p, where a right-half u_j with
    no inverse mod p is refused.  The candidate set equals the exhaustive
    attack's; only the cost profile changes.  subsets_examined counts list
    entries, not pairs; the lists hold only subsets of weight <= h, and
    MAX_LIST_ENTRIES caps that count.
    """
    start = time.perf_counter()
    n = pk.n
    if split is None:
        split = n // 2
    if not 1 <= split < n:
        raise ParameterError(f"split must lie in [1, {n - 1}]")
    h, target, reduced = _weight_and_target(pk, ct)
    entries = sum(comb(split, w) + comb(n - split, w) for w in range(h + 1))
    if entries > MAX_LIST_ENTRIES:
        raise ParameterError("split exceeds the memory cap")
    u = pk.u
    q = pk.p if reduced or not all(x % FILTER_MODULUS for x in u) else FILTER_MODULUS
    try:
        inverses = [mod_inv(u[j], q) for j in range(split, n)]
    except ValueError:
        raise ParameterError("a public u_i is not invertible mod p") from None
    bits = [1 << (n - 1 - j) for j in range(n)]  # masks are BitVector.from_int values
    left_masks, left = _products_by_weight([x % q for x in u[:split]], bits[:split], q, 1, h)
    right_masks, right = _products_by_weight(inverses, bits[split:], q, target, h)
    found = []
    for w, want in enumerate(right):
        have = left[h - w]
        hits = set(have).intersection(want)
        if not hits:
            continue
        by_product: dict[int, list[int]] = {}
        for pr, lmask in compress(zip(have, left_masks[h - w]), map(hits.__contains__, have)):
            by_product.setdefault(pr, []).append(lmask)
        for pr, rmask in compress(zip(want, right_masks[w]), map(hits.__contains__, want)):
            for lmask in by_product[pr]:
                m = BitVector.from_int(lmask | rmask, n)
                if reduced or prod(compress(u, m.bits)) == target:
                    found.append(m)
    return AttackReport(
        recovered_h=h,
        candidates=tuple(sorted(found)),
        subsets_examined=sum(map(len, left)) + sum(map(len, right)),
        predicted_bound=entropy_bound(n, h),
        elapsed=time.perf_counter() - start,
    )


def attack_complexity_profile(n: int, h: int) -> ComplexityProfile:
    """Classify n-choose-h against the entropy bound.

    "medium" marks the band where the bound approaches 2^n and enumeration
    stops being realistic; below MEDIUM_ENTROPY_THRESHOLD the side of n/2
    decides between "small" and "large".
    """
    exact = binomial(n, h)
    bound = entropy_bound(n, h)
    if n > 0 and binary_entropy(h / n) > MEDIUM_ENTROPY_THRESHOLD:
        regime = "medium"
    elif h <= n / 2:
        regime = "small"
    else:
        regime = "large"
    return ComplexityProfile(exact=exact, bound=bound, regime=regime)

