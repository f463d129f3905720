"""Message-recovery attacks on the knapsack ciphertexts, public key only.

The constant first component of every public pair leaks the Hamming weight
of whatever was encrypted (C1 is just s^h), which collapses the search space
from 2^n to n-choose-h.  The divisor attack walks the u_i dividing the
unreduced C2, as the receiver walks its secret terms; the exhaustive attack
takes its matches from that walk and counts the subsets it decides, the
paper's cost, by a pruned walk or two lists of logs; the meet-in-the-middle
attack matches half-products, also on the hardened scheme's reduced C1'',
the birthday search that dictates how large n must be.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, repeat, takewhile
from math import comb, gcd, log2, prod
from struct import pack
from sys import hash_info
from weakref import WeakKeyDictionary

from .errors import MalformedCiphertext, ParameterError
from .numtheory import (
    BitVector,
    binary_entropy,
    binomial,
    divisor_subsets,
    entropy_bound,
    least_products,
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


def _report(start: float, n: int, h: int, candidates, examined: int) -> AttackReport:
    """The report of a search begun at start; candidates come in canonical order."""
    candidates = tuple(candidates)
    return AttackReport(h, candidates, examined, entropy_bound(n, h), time.perf_counter() - start)


def exhaustive_subset_attack(pk, ct) -> AttackReport:
    """Count the weight-h index subsets the search decides, and return every match.

    Candidates are complete: every subset reproducing the target component
    is returned, since ambiguous decryptions are part of what the lab
    measures.  subsets_examined is the paper's cost: the weight-h subsets
    the search decides, so pruning only ever lowers it below n-choose-h.
    It is the same count whichever of the three regimes below runs; only
    ``elapsed`` is the cost of this implementation.

    A target reduced mod p admits no bound on partial products, so that
    walk builds every product mod p, examines all n-choose-h subsets and
    keeps the matches.

    An unreduced target T is an exact integer product, so its matches are
    the divisor attack's: divisor_subsets over the u_i, which inherits that
    walk's MAX_WALK_NODES refusal.  A subset counts as examined iff its
    product is at most T, and over the u_i in ascending order two regimes
    only count that set.  The walk (_walk_below) visits prefixes and cuts
    each loop at the first index whose smallest completion exceeds the
    quotient cap.  The count (_count_below) visits no prefix: it matches
    two lists of log products and decides only the pairs near T on
    integers.  The count runs iff h >= 4, its full lists hold L = sum over
    w <= h of C(n // 2, w) + C(n - n // 2, w) <= MAX_LIST_ENTRIES entries,
    and 4 * L < C(n, h - 1), constants set from measured crossovers, which
    the README lists.  At n = 20 that is h >= 6.  The rule keeps the walk
    at h <= 3 and at n = 64, h = 4, where building the lists costs more
    than the walk.
    """
    start = time.perf_counter()
    h, target, reduced = _weight_and_target(pk, ct)
    n = pk.n
    if reduced:
        bit = [1 << (n - 1 - j) for j in range(n)]  # masks are BitVector.from_int values
        found, examined = _walk_reduced(pk.u, bit, h, target, pk.p)
        return _report(start, n, h, (BitVector.from_int(m, n) for m in sorted(found)), examined)
    u = sorted(pk.u)
    examined = (_count_below if _count_pays(n, h) else _walk_below)(u, h, target)
    return _report(start, n, h, _divisor_candidates(pk, target, h)[0], examined)


def divisor_subset_attack(pk, ct) -> AttackReport:
    """The exhaustive attack's candidates, by decrypt_all's divisor walk over the u_i.

    The original C2 is an exact product of the selected u_i, so each
    divides it.  subsets_examined counts the walk's nodes.  A target
    reduced mod p is refused: there every u_i divides it.
    """
    start = time.perf_counter()
    if scheme_of(pk).reduced:
        raise ParameterError("divisibility means nothing mod p: the divisor walk needs C2")
    h, target, _ = _weight_and_target(pk, ct)
    return _report(start, pk.n, h, *_divisor_candidates(pk, target, h))


def _divisor_candidates(pk, target: int, h: int) -> tuple[list[BitVector], int]:
    """(the weight-h subsets of the u_i with product target, in canonical order, walk nodes)."""
    found, nodes = divisor_subsets(pk.u, target, h)
    return sorted(BitVector.from_indices(pk.n, c) for c in found), nodes


def _list_entries(n: int, split: int, h: int) -> int:
    """The subsets of weight <= h on either side of a split: two full lists' length."""
    return sum(comb(split, w) + comb(n - split, w) for w in range(h + 1))


def _count_pays(n: int, h: int) -> bool:
    """Whether an unreduced exhaustive search counts by lists rather than walking."""
    entries = _list_entries(n, n // 2, h)
    return h >= 4 and entries <= MAX_LIST_ENTRIES and 4 * entries < comb(n, h - 1)


def _walk_reduced(u, bit, h: int, target: int, p: int) -> tuple[list[int], int]:
    """(masks of the weight-h subsets whose product is target mod p, n-choose-h)."""
    n = len(u)
    found: list[int] = []
    examined = 0

    def walk(first: int, left: int, mask: int, partial: int):
        nonlocal examined
        if left == 1:  # the last factor: each step builds a full subset
            for i in range(first, n):
                examined += 1
                if partial * u[i] % p == target:
                    found.append(mask | bit[i])
            return
        for i in range(first, n - left + 1):
            walk(i + 1, left - 1, mask | bit[i], partial * u[i] % p)

    walk(0, h, 0, 1)
    return found, examined


def _walk_below(u, h: int, target: int) -> int:
    """The weight-h subsets with product <= target, counted by a pruned walk.

    u is ascending.  In place of the partial product P the walk carries
    cap = target // P; a child takes cap // u_i, since floor(floor(T/a)/b)
    equals floor(T/(ab)).  A last factor u_i is examined iff u_i <= cap,
    that is iff the full product is at most the target, so one bisection
    counts them.  A loop that still has to pick k factors ends at the first
    i where u_i * ... * u_(i+k-1), the smallest completion, exceeds cap: no
    subset below it or to its right can be examined.

    From h = 4 on, the node with two factors left counts its subsets by
    bisecting rows[i], the products u_i * u_j for j > i built once per call
    (ascending, as u is), for cap: P * u_i * u_j <= T iff u_i * u_j <= cap.
    Each row is cut at T // (u_0 * ... * u_(h-3)), the largest cap a
    two-left node can see.  A row entry costs one multiplication, against
    a prefix's one division, so rows pay only when many prefixes reuse
    them: the C(n, h-2) prefixes outnumber the C(n, 2) row entries iff
    h >= 4.
    """
    n = len(u)
    rows: list[list[int]] = []  # filled only for h >= 4

    def walk(first: int, left: int, cap: int) -> int:
        if left == 1:  # the last factor: every u_i <= cap from first on
            return bisect_right(u, cap, first) - first
        if left == 2 and rows:  # the last two factors: u_i * u_j <= cap, row by row
            return sum(takewhile(bool, map(bisect_right, rows[first:], repeat(cap))))
        smallest, examined = least[left], 0
        for i in range(first, n - left + 1):
            if smallest[i] > cap:
                break
            examined += walk(i + 1, left - 1, cap // u[i])
        return examined

    least = least_products(u, h)
    if h >= 4:
        # rows[i] = u_i * u_j for j > i, ascending, cut at the largest cap a two-left node sees
        bound = target // least[h - 2][0]
        rows = [
            list(takewhile(bound.__ge__, map(ui.__mul__, u[i + 1 :]))) for i, ui in enumerate(u)
        ]
    return walk(0, h, target)


def _count_below(u, h: int, target: int) -> int:
    """The weight-h subsets with product <= target, counted by two lists.

    u is ascending and split at n // 2, in the two-list manner of Horowitz
    and Sahni (J. ACM 1974) and Schroeppel and Shamir (SIAM J. Comput.
    1981).  Each half lists the log2 products of its subsets per weight, in
    the MITM's colex order.  For each weight pair (w, h - w) the right logs
    above log2 T + eps - left[w][0] are cut: colex position 0 holds the w
    least left u_i, so a cut log lands above the band for every left entry.
    The kept positions are sorted by log, and a left log a counts the right
    logs below log2 T - a - eps by bisection: those pairs are below T for
    sure, and those above log2 T - a + eps above it.  The pairs in between
    are unranked and decided on exact integers; every tie lands there, so
    the count is exact.

    eps bounds the float error with room to spare.  math.log2 of an int
    errs by at most 2^-51 * max(1, its log2), and each float addition or
    subtraction rounds by at most 2^-53 of its result.  A decision that
    matters, the cut's included, compares a sum of logs with log2 T + eps or
    log2 T - eps less another, at most n logs, each about log2 T or less: at
    most 2n + 8 roundings, each below 2^-51 * max(1, log2 T) up to a factor
    1 + 2^-40.  eps = (2n + 8) * 2^-50 * max(1, log2 T) is twice their sum.
    """
    n = len(u)
    if prod(u[:h]) > target:  # the h smallest exceed it: nothing is examined
        return 0
    log_t = log2(target)
    eps = (2 * n + 8) * 2.0**-50 * max(1.0, log_t)
    below, above = log_t - eps, log_t + eps
    split, logs = n // 2, list(map(log2, u))
    left, right = (_colex_lists(x, h, array("d", [0]), _add) for x in (logs[:split], logs[split:]))
    high = u[split:]
    examined = 0
    for w in range(max(0, h + split - n), min(h, split) + 1):  # both lists nonempty
        have, want = left[w], right[h - w]
        cut = above - have[0]
        order = sorted(compress(range(len(want)), map(cut.__ge__, want)), key=want.__getitem__)
        ordered = list(map(want.__getitem__, order))
        sure = list(map(bisect_left, repeat(ordered), map(below.__sub__, have)))
        near = list(map(bisect_right, repeat(ordered), map(above.__sub__, have)))
        examined += sum(sure)
        for i in compress(range(len(have)), map(int.__lt__, sure, near)):
            partial = prod(map(u.__getitem__, _colex_subset(i, w, split)))
            for j in range(sure[i], near[i]):
                tail = _colex_subset(order[j], h - w, n - split)
                examined += partial * prod(map(high.__getitem__, tail)) <= target
    return examined


def _add(factor, level):
    """The count's join: each log sum of a level plus one more log."""
    return map(factor.__add__, level)


def _times_mod(q: int):
    """The MITM's join mod q: each product of a level times one more factor."""
    return lambda factor, level: map(q.__rmod__, map(factor.__mul__, level))


def _colex_lists(factors, weight_cap: int, unit, join) -> list:
    """Per weight w <= cap, join folded over each w-subset of factors, in colex order.

    unit, the list of weight 0, sets the lists' type.  Position pos of list w
    holds {c_1 < ... < c_w} with sum_i C(c_i, i) = pos; _colex_subset inverts it.
    """
    lists = [unit] + [unit[:0] for _ in range(weight_cap)]
    for factor in factors:
        for w in range(weight_cap, 0, -1):  # descending: level w-1 is still without factor
            lists[w].extend(join(factor, lists[w - 1]))
    return lists


def _colex_subset(pos: int, w: int, size: int) -> list[int]:
    """The w-subset of range(size) at position pos in colex order, largest index first."""
    out = []
    c = size
    for i in range(w, 0, -1):
        c -= 1
        while comb(c, i) > pos:
            c -= 1
        out.append(c)
        pos -= comb(c, i)
    return out


def _inverses(values, q: int) -> list[int]:
    """Every value's inverse mod q from one mod_inv, by Montgomery's batch trick."""
    prefix = list(accumulate(values, lambda a, b: a * b % q, initial=1))
    inverse, out = mod_inv(prefix.pop(), q), []  # exists iff every value's does
    for value, before in zip(reversed(values), reversed(prefix)):
        out.append(inverse * before % q)
        inverse = inverse * value % q
    return out[::-1]


# Per public key, its MITM tables by (split, q); an entry lives exactly as long as its key.
_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _tables(pk, split: int, q: int, h: int):
    """(h, right inverses, left, right) for (split, q), built once and again for a larger h.

    left[w] lists prod_A u mod q over the left subsets A of weight w, and
    right[w] prod_B u^-1 mod q over the right ones, in colex order.  Above
    weight h // 2 only their hashes are kept, in an array('q').
    """
    tables = _TABLES.get(pk, {}).get((split, q))
    if tables is None or tables[0] < h:
        try:
            inverses = _inverses(pk.u[split:], q)
        except ValueError:
            raise ParameterError("a public u_i is not invertible mod p") from None
        halves = ([x % q for x in pk.u[:split]], inverses)
        sides = [_colex_lists(f, h, [1], _times_mod(q)) for f in halves]
        exact = q < hash_info.modulus  # then hash(x) == x: a residue is its own hash
        for side in sides:
            for w in range(h // 2 + 1, h + 1):
                hashes = side[w] if exact else map(hash, side[w])
                side[w] = array("q", pack(f"{len(side[w])}q", *hashes))
        tables = _TABLES.setdefault(pk, {})[split, q] = (h, inverses, *sides)
    return tables


def mitm_subset_attack(pk, ct, split: int | None = None) -> AttackReport:
    """Meet-in-the-middle over a left/right index split, matched mod a prime q.

    Only the target T depends on the ciphertext, so the lists are built
    once per public key, split and q, and kept while the key object
    lives: the left one holds every subset product over [0, split) mod q,
    the right one every product of the inverses of u_split..u_(n-1).
    Subsets A and B of weights h - w and w match iff prod_A = t * prod_B^-1
    (mod q), t = T mod q.  Each weight pair multiplies t (or t^-1) into
    the side of lower weight only, and looks those values' hashes up among
    the other side's.  Every hit is confirmed on exact values, so a hash
    collision costs only time.  A t with no inverse (only a composite p
    admits a nonzero one) streams the right side at every weight.

    A target reduced mod p (C1'' of the hardened scheme) is matched with
    q = p, where the congruence is the whole equation.  An unreduced
    target is an exact integer product, so there the congruence is only a
    filter and q = FILTER_MODULUS, whose residues each fit one CPython
    digit.  Every exact solution passes it while no u_i is a multiple of
    q; a key with such a u_i falls back to q = p, where a right-half u_j
    with no inverse mod p is refused.  The candidate set equals the
    exhaustive attack's; only the cost profile changes.  subsets_examined
    counts list entries, not pairs; the lists hold only subsets of weight
    <= h, and MAX_LIST_ENTRIES caps that count.
    """
    start = time.perf_counter()
    n = pk.n
    if n < 2:
        raise ParameterError("the meet-in-the-middle search needs two positions to split")
    if split is None:
        split = n // 2
    if not 1 <= split < n:
        raise ParameterError(f"split must lie in [1, {n - 1}]")
    h, target, reduced = _weight_and_target(pk, ct)
    entries = _list_entries(n, split, h)
    if entries > MAX_LIST_ENTRIES:
        raise ParameterError("split exceeds the memory cap")
    u = pk.u
    q = pk.p if reduced or not all(x % FILTER_MODULUS for x in u) else FILTER_MODULUS
    _, inverses, left, right = _tables(pk, split, q, h)
    t = target % q
    t_inv = pow(t, -1, q) if gcd(t, q) == 1 else None
    if not t_inv:
        right = _colex_lists(inverses, h, [1], _times_mod(q))
    found = []
    for w in range(h + 1):
        stream_right = w <= h - w or not t_inv
        if stream_right:  # t * prod_B^-1 against the left products
            factor, streamed, scanned = t, right[w], left[h - w]
        else:  # prod_A * t^-1 against the right inverse products
            factor, streamed, scanned = t_inv, left[h - w], right[w]
        keys = list(map(hash, map(q.__rmod__, map(factor.__mul__, streamed))))
        if isinstance(scanned, list):  # residues, not yet hashes
            scanned = list(map(hash, scanned))
        hits = set(keys).intersection(scanned)
        if not hits:
            continue
        for pos in compress(range(len(scanned)), map(hits.__contains__, scanned)):
            for other in compress(range(len(keys)), map(scanned[pos].__eq__, keys)):
                i, j = (pos, other) if stream_right else (other, pos)
                chosen = _colex_subset(i, h - w, split)
                chosen += [split + c for c in _colex_subset(j, w, n - split)]
                product = prod(map(u.__getitem__, chosen))
                if (product % pk.p if reduced else product) == target:
                    found.append(BitVector.from_indices(n, chosen))
    return _report(start, n, h, sorted(found), entries)


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

