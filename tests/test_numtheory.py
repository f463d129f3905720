"""Number-theory core, checked against independent brute-force oracles."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knaplab.numtheory import (
    BitVector,
    PrimeSequence,
    SafePrimeGroup,
    SuperIncreasingSeq,
    binary_entropy,
    binomial,
    entropy_bound,
    gcd,
    gen_prime_sequence,
    gen_safe_prime,
    gen_superincreasing,
    is_probable_prime,
    is_safe_prime,
    mod_inv,
    power_index,
    solve_coprime_subset_product,
    solve_superincreasing_subset_sum,
)

# --- independent oracles ---------------------------------------------------


def extended_euclid(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = extended_euclid(b, a % b)
    return g, y, x - (a // b) * y


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def sieve_safe_primes(bits):
    lo, hi = 1 << (bits - 1), 1 << bits
    return {
        p
        for p in range(lo, hi)
        if trial_division_is_prime(p) and trial_division_is_prime((p - 1) // 2)
    }


def all_subset_sums(terms):
    table = {}
    for mask in range(1 << len(terms)):
        total = sum(t for j, t in enumerate(terms) if mask >> j & 1)
        table.setdefault(total, []).append(mask)
    return table


def all_subset_products(terms):
    table = {}
    for mask in range(1 << len(terms)):
        product = math.prod((t for j, t in enumerate(terms) if mask >> j & 1), start=1)
        table.setdefault(product, []).append(mask)
    return table


def mask_to_bits(mask, n):
    return BitVector(tuple(mask >> j & 1 for j in range(n)))


# --- strategies --------------------------------------------------------------

superincreasing_seqs = st.lists(
    st.integers(min_value=1, max_value=40), min_size=1, max_size=12
).map(lambda steps: _build_superincreasing(steps))


def _build_superincreasing(steps):
    terms, total = [], 0
    for s in steps:
        terms.append(total + s)
        total += terms[-1]
    return SuperIncreasingSeq(tuple(terms))


_PRIME_POOL = tuple(p for p in range(2, 200) if trial_division_is_prime(p))

prime_seqs = st.sets(st.sampled_from(_PRIME_POOL), min_size=1, max_size=10).map(
    lambda s: PrimeSequence(tuple(sorted(s)))
)


# --- modular arithmetic ------------------------------------------------------


def test_mod_inv_known_values():
    assert mod_inv(pow(10816, 1500, 2579), 2579) == 2483
    assert mod_inv(1, 97) == 1


def test_mod_inv_matches_extended_euclid_and_multiplies_to_one():
    rng = random.Random(202)
    for _ in range(10_000):
        modulus = rng.randrange(2, 5000)
        a = rng.randrange(1, modulus)
        if math.gcd(a, modulus) != 1:
            with pytest.raises(ValueError):
                mod_inv(a, modulus)
            continue
        w = mod_inv(a, modulus)
        assert a * w % modulus == 1
        g, x, _ = extended_euclid(a, modulus)
        assert g == 1 and w == x % modulus


def test_mod_inv_rejects_non_invertible():
    with pytest.raises(ValueError):
        mod_inv(6, 9)


def test_gcd_conventions():
    assert gcd(72, 3) == 3
    assert gcd(13, 0) == 13
    assert gcd(0, 0) == 0


# --- primality ---------------------------------------------------------------


def test_is_probable_prime_known_values():
    assert is_probable_prime(2579)
    assert not is_probable_prime(1)
    assert not is_probable_prime(0)
    assert is_probable_prime(2)


def test_is_probable_prime_agrees_with_trial_division_below_10k():
    for n in range(10_000):
        assert is_probable_prime(n) == trial_division_is_prime(n), n


def test_semiprime_of_32_bit_primes_is_composite():
    rng = random.Random(7)
    for _ in range(5):
        while True:
            p = rng.randrange(1 << 31, 1 << 32) | 1
            if trial_division_is_prime(p):
                break
        while True:
            q = rng.randrange(1 << 31, 1 << 32) | 1
            if trial_division_is_prime(q) and q != p:
                break
        assert not is_probable_prime(p * q)


def test_is_safe_prime_agrees_with_miller_rabin_below_two_million():
    # Pocklington on p given prime q, against 40-round MR and an exact sieve
    limit = 2 * 10**6
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    safe = 0
    for q in range(2, limit // 2):
        if not flags[q] or 2 * q + 1 >= limit:
            continue
        p = 2 * q + 1
        assert is_safe_prime(p) == is_probable_prime(p, 40) == bool(flags[p]), p
        safe += flags[p]
    assert safe > 3000  # the agreement is not vacuous on the prime side
    assert not any(is_safe_prime(p) for p in (-7, -1, 0, 1, 2, 3, 4, 19, 27, 35))


def test_is_safe_prime_agrees_with_miller_rabin_at_250_bits():
    rng = random.Random(2003186)
    checked = 0
    while checked < 200:
        q = rng.randrange(1 << 249, 1 << 250) | 1
        if not is_probable_prime(q):
            continue
        assert is_safe_prime(2 * q + 1) == is_probable_prime(2 * q + 1, 40), q
        checked += 1
    for seed in range(3):
        group = gen_safe_prime(251, random.Random(seed))
        assert is_safe_prime(group.p) and is_probable_prime(group.p, 40)
        assert not is_safe_prime(group.p + 2)  # (p + 1) / 2 = q + 1 is even


# --- generators ---------------------------------------------------------------


def test_gen_safe_prime_eight_bit_values_match_sieve():
    expected = sieve_safe_primes(8)
    assert expected == {167, 179, 227}  # frozen from the sieve oracle
    seen = set()
    for seed in range(24):
        group = gen_safe_prime(8, random.Random(seed))
        assert group.p in expected
        seen.add(group.p)
    assert len(seen) >= 2


@pytest.mark.parametrize("bits", [8, 16, 24, 48, 96])
def test_gen_safe_prime_structure(bits):
    group = gen_safe_prime(bits, random.Random(bits))
    assert group.p.bit_length() == bits
    assert group.p == 2 * group.q + 1
    assert is_probable_prime(group.p) and is_probable_prime(group.q)
    assert pow(group.g, group.q, group.p) != 1
    assert pow(group.g, 2, group.p) != 1


def test_gen_safe_prime_rejects_tiny_bit_length():
    with pytest.raises(ValueError):
        gen_safe_prime(3, random.Random(0))


def test_gen_prime_sequence_feasibility():
    # only 11 and 13 have 4 bits, so five distinct ones cannot exist
    with pytest.raises(ValueError):
        gen_prime_sequence(5, 4, random.Random(0))


def test_gen_prime_sequence_two_bit_primes():
    seq = gen_prime_sequence(2, 2, random.Random(0))
    assert set(seq.primes) == {2, 3}


def test_gen_prime_sequence_distinct_real_primes():
    seq = gen_prime_sequence(3, 8, random.Random(1))
    assert len(set(seq.primes)) == 3
    for p in seq.primes:
        assert p.bit_length() == 8
        assert trial_division_is_prime(p)


def test_gen_superincreasing_invariant_over_many_draws():
    for seed in range(1000):
        seq = gen_superincreasing(6, random.Random(seed))
        total = 0
        for t in seq.terms:
            assert t > total
            total += t


def test_gen_superincreasing_single_term():
    seq = gen_superincreasing(1, random.Random(3))
    assert len(seq) == 1 and seq.terms[0] >= 1


# --- knapsack solvers ----------------------------------------------------------


def test_greedy_subset_sum_takes_largest_first():
    seq = SuperIncreasingSeq((2, 3, 6, 12, 24))
    # brute force: 15 = 3 + 12 is the only decomposition
    sums = all_subset_sums(seq.terms)
    assert [mask_to_bits(m, 5) for m in sums[15]] == [BitVector.from_string("01010")]
    assert solve_superincreasing_subset_sum(seq, 15) == BitVector.from_string("01010")


def test_greedy_subset_sum_edge_targets():
    seq = SuperIncreasingSeq((2, 3, 6, 12, 24))
    assert solve_superincreasing_subset_sum(seq, 0) == BitVector((0,) * 5)
    assert solve_superincreasing_subset_sum(seq, seq.total) == BitVector((1,) * 5)
    assert solve_superincreasing_subset_sum(seq, 1) is None


def test_greedy_subset_sum_agrees_with_brute_force_everywhere():
    seq = gen_superincreasing(12, random.Random(99))
    sums = all_subset_sums(seq.terms)
    for target in range(seq.total + 3):
        got = solve_superincreasing_subset_sum(seq, target)
        if target in sums:
            (mask,) = sums[target]  # super-increase makes every sum unique
            assert got == mask_to_bits(mask, 12)
        else:
            assert got is None


@given(superincreasing_seqs, st.data())
def test_greedy_subset_sum_round_trip(seq, data):
    bits = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
    target = sum(t for t, b in zip(seq.terms, bits) if b)
    got = solve_superincreasing_subset_sum(seq, target)
    assert got == BitVector(tuple(int(b) for b in bits))


def test_coprime_subset_product_known_values():
    seq = PrimeSequence((2, 3, 5, 7, 11))
    products = all_subset_products(seq.primes)
    assert products[110] == [0b10101]  # brute force: unique preimage
    bits, exact = solve_coprime_subset_product(seq, 110)
    assert (bits, exact) == (BitVector.from_string("10101"), True)
    assert solve_coprime_subset_product(seq, 1) == (BitVector((0,) * 5), True)


def test_coprime_subset_product_reports_foreign_factors():
    bits, exact = solve_coprime_subset_product(PrimeSequence((2, 3, 5)), 12)
    assert bits == BitVector.from_string("110")
    assert exact is False


def test_coprime_subset_product_agrees_with_brute_force():
    seq = PrimeSequence((2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    products = all_subset_products(seq.primes)
    for product, masks in products.items():
        bits, exact = solve_coprime_subset_product(seq, product)
        assert exact is True
        assert [bits] == [mask_to_bits(m, 10) for m in masks]


@given(prime_seqs, st.data())
def test_coprime_subset_product_round_trip(seq, data):
    bits = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
    product = math.prod((t for t, b in zip(seq.primes, bits) if b), start=1)
    got, exact = solve_coprime_subset_product(seq, product)
    assert exact is True
    assert got == BitVector(tuple(int(b) for b in bits))


# --- counting -------------------------------------------------------------------


def test_binomial_and_entropy_edges():
    assert binomial(10, 0) == 1
    assert entropy_bound(10, 0) == 1.0
    assert binomial(5, 5) == 1
    with pytest.raises(ValueError):
        binomial(5, 6)
    with pytest.raises(ValueError):
        entropy_bound(5, 6)


def test_entropy_bound_is_exactly_two_to_n_at_half_weight():
    for n in range(2, 66, 2):
        assert entropy_bound(n, n // 2) == 2.0**n


def test_binomial_never_exceeds_entropy_bound():
    for n in range(65):
        for h in range(n + 1):
            assert binomial(n, h) <= entropy_bound(n, h), (n, h)


def test_binary_entropy_shape():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert 0 < binary_entropy(0.1) < binary_entropy(0.3) < 1


# --- small types ------------------------------------------------------------------


def test_bitvector_string_and_int_round_trip():
    bv = BitVector.from_string("01001")
    assert str(bv) == "01001"
    assert bv.as_int == 9
    assert BitVector.from_int(9, 5) == bv
    assert bv.weight == 2
    assert bv.support() == (1, 4)


@given(st.integers(min_value=1, max_value=20), st.data())
def test_bitvector_int_round_trip(n, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert BitVector.from_int(value, n).as_int == value


def test_bitvector_rejects_bad_entries():
    with pytest.raises(ValueError):
        BitVector((0, 2))
    with pytest.raises(ValueError):
        BitVector(())
    with pytest.raises(ValueError):
        BitVector.from_string("01x")


def test_superincreasing_type_rejects_slack_terms():
    SuperIncreasingSeq((2, 3, 6, 12, 24))
    with pytest.raises(ValueError):
        SuperIncreasingSeq((1, 2, 3))
    with pytest.raises(ValueError):
        SuperIncreasingSeq((0, 1))


def test_prime_sequence_type_validates():
    with pytest.raises(ValueError):
        PrimeSequence((2, 3, 4))
    with pytest.raises(ValueError):
        PrimeSequence((2, 3, 3))


def test_safe_prime_group_validates():
    SafePrimeGroup(2579, 1289, 2)
    with pytest.raises(ValueError):
        SafePrimeGroup(2579, 1289, 2578)  # order 2
    with pytest.raises(ValueError):
        SafePrimeGroup(13, 6, 2)  # 6 not prime
    with pytest.raises(ValueError):
        SafePrimeGroup(35, 17, 2)  # 17 prime, 35 composite
    with pytest.raises(ValueError):
        SafePrimeGroup(27, 13, 2)  # 3 divides p


def test_power_index():
    assert power_index(104, 104**4, 5) == 4
    assert power_index(104, 1, 5) == 0
    assert power_index(104, 105, 5) is None
