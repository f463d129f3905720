"""Attack suite: weight recovery, subset searches, and the cost profile."""

import bisect
import functools
import gc
import hashlib
import itertools
import operator
import random
from array import array
from math import comb, log2, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knaplab import akleylek, attacks, cli, games, keyfile, modified, numtheory
from knaplab.errors import MalformedCiphertext, ParameterError
from knaplab.numtheory import (
    BitVector,
    binomial,
    entropy_bound,
    gen_safe_prime,
    is_probable_prime,
)


def brute_force_preimages(pk, ct):
    """Oracle: every message whose re-encryption equals the ciphertext."""
    hits = []
    for value in range(1, 1 << pk.n):
        m = BitVector.from_int(value, pk.n)
        if akleylek.encrypt(pk, m) == ct:
            hits.append(m)
    return sorted(hits)


def attacks_bits(n):
    from knaplab.games import suggested_modulus_bits

    return suggested_modulus_bits(n)


def test_recover_hamming_weight_known_values(toy_keypair):
    pub, _ = toy_keypair
    assert attacks.recover_hamming_weight(pub, 10816) == 2
    assert attacks.recover_hamming_weight(pub, 104) == 1
    assert attacks.recover_hamming_weight(pub, 116985856) == 4


def test_recover_hamming_weight_rejects_non_powers(toy_keypair):
    pub, _ = toy_keypair
    with pytest.raises(MalformedCiphertext):
        attacks.recover_hamming_weight(pub, 105)
    with pytest.raises(MalformedCiphertext):
        attacks.recover_hamming_weight(pub, 104**6)


def test_recover_hamming_weight_rejects_weight_zero(toy_keypair):
    pub, _ = toy_keypair
    mod_pub, _ = modified.keygen(6, 6, random.Random(3))
    for pk in (pub, mod_pub):
        with pytest.raises(MalformedCiphertext):
            attacks.recover_hamming_weight(pk, 1)  # s^0: no encryption produces it


@pytest.mark.parametrize(
    "attack",
    [attacks.exhaustive_subset_attack, attacks.mitm_subset_attack, attacks.divisor_subset_attack],
)
@pytest.mark.parametrize("key_scheme", ["original", "modified"])
def test_attacks_refuse_a_ciphertext_of_the_other_scheme(attack, key_scheme, toy_keypair):
    if key_scheme == "original":
        pk, _ = toy_keypair
        ct = modified.ModifiedCiphertext(pk.s_value, pk.u[0], 5)
    else:
        pk, _ = modified.keygen(6, 6, random.Random(3))
        ct = akleylek.AkleylekCiphertext(pk.s_value, pk.u[0])
    with pytest.raises(ParameterError):
        attack(pk, ct)


def test_exhaustive_attack_on_toy_ciphertext(toy_keypair):
    pub, _ = toy_keypair
    ct = akleylek.AkleylekCiphertext(10816, 372020)
    report = attacks.exhaustive_subset_attack(pub, ct)
    assert report.recovered_h == 2
    assert report.candidates == (BitVector.from_string("01001"),)
    assert report.subsets_examined <= binomial(5, 2) == 10
    assert report.candidates == tuple(brute_force_preimages(pub, ct))


def test_exhaustive_attack_single_bit_messages(toy_keypair):
    pub, _ = toy_keypair
    for i in range(5):
        ct = akleylek.AkleylekCiphertext(pub.s_value, pub.u[i])
        report = attacks.exhaustive_subset_attack(pub, ct)
        assert report.candidates == (BitVector.from_indices(5, [i]),)


def test_exhaustive_attack_candidates_reencrypt(toy_keypair):
    pub, _ = toy_keypair
    rng = random.Random(21)
    for _ in range(20):
        m = BitVector.from_int(rng.randrange(1, 32), 5)
        ct = akleylek.encrypt(pub, m)
        report = attacks.exhaustive_subset_attack(pub, ct)
        assert m in report.candidates
        for cand in report.candidates:
            assert akleylek.encrypt(pub, cand) == ct


def test_exhaustive_attack_matches_brute_force_scan():
    rng = random.Random(33)
    pub, _ = akleylek.keygen(12, 128, rng)
    for _ in range(10):
        m = BitVector.from_int(rng.randrange(1, 1 << 12), 12)
        ct = akleylek.encrypt(pub, m)
        report = attacks.exhaustive_subset_attack(pub, ct)
        assert list(report.candidates) == brute_force_preimages(pub, ct)


def test_exhaustive_attack_weight_three_at_n_sixteen():
    rng = random.Random(44)
    for _ in range(5):
        pub, _ = akleylek.keygen(16, 176, rng)
        m = BitVector.from_indices(16, rng.sample(range(16), 3))
        report = attacks.exhaustive_subset_attack(pub, akleylek.encrypt(pub, m))
        assert m in report.candidates
        assert report.subsets_examined <= binomial(16, 3) <= report.predicted_bound


def test_mitm_matches_exhaustive_on_toy_key(toy_keypair):
    pub, _ = toy_keypair
    ct = akleylek.AkleylekCiphertext(10816, 372020)
    exh = attacks.exhaustive_subset_attack(pub, ct)
    for split in (1, 2, 3, 4):
        mitm = attacks.mitm_subset_attack(pub, ct, split)
        assert mitm.candidates == exh.candidates
        assert mitm.recovered_h == exh.recovered_h


def test_mitm_matches_exhaustive_on_random_instances():
    rng = random.Random(55)
    for trial in range(20):
        n = rng.randrange(8, 17)
        pub, _ = akleylek.keygen(n, attacks_bits(n), rng)
        h = rng.randrange(1, n)
        m = BitVector.from_indices(n, rng.sample(range(n), h))
        ct = akleylek.encrypt(pub, m)
        exh = attacks.exhaustive_subset_attack(pub, ct)
        mitm = attacks.mitm_subset_attack(pub, ct)
        assert exh.candidates == mitm.candidates
        assert m in exh.candidates


def test_mitm_list_sizes_stay_bounded():
    rng = random.Random(66)
    n = 14
    pub, _ = akleylek.keygen(n, attacks_bits(n), rng)
    m = BitVector.from_indices(n, [3])
    report = attacks.mitm_subset_attack(pub, akleylek.encrypt(pub, m), split=7)
    assert report.candidates == (m,)
    assert report.subsets_examined <= 2**7 + 2**7


def test_mitm_validates_split_and_memory_cap(toy_keypair):
    pub, _ = toy_keypair
    ct = akleylek.AkleylekCiphertext(10816, 372020)
    with pytest.raises(ParameterError):
        attacks.mitm_subset_attack(pub, ct, split=0)
    with pytest.raises(ParameterError):
        attacks.mitm_subset_attack(pub, ct, split=5)
    # weight 12 of 46: each half's lists of weight <= 12 hold 2^22 + C(23, 12) entries
    n = 46
    big = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(range(2, n + 2)))
    heavy = akleylek.encrypt(big, BitVector.from_indices(n, range(12)))
    with pytest.raises(ParameterError, match="memory cap"):
        attacks.mitm_subset_attack(big, heavy)


def test_mitm_memory_cap_counts_only_subsets_of_weight_at_most_h():
    # All subsets of either half would be 2^23 + 2^23 entries, past the
    # default cap; the weight <= 1 lists hold 24 + 24.
    n = 46
    pub = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(range(2, n + 2)))
    ct = akleylek.encrypt(pub, BitVector.from_indices(n, [5]))
    exhaustive = attacks.exhaustive_subset_attack(pub, ct)
    assert exhaustive.subsets_examined == 6
    mitm = attacks.mitm_subset_attack(pub, ct)
    assert mitm.candidates == exhaustive.candidates == (BitVector.from_indices(n, [5]),)
    assert mitm.subsets_examined == 48


def test_attacks_recover_randomness_of_modified_scheme():
    rng = random.Random(77)
    pub, _ = modified.keygen(10, 8, rng)
    for _ in range(10):
        r = BitVector.from_int(rng.randrange(2, 1 << 10), 10)
        ct = modified.encrypt_with_randomness(pub, 1234 % pub.max_message + 1, r)
        exh = attacks.exhaustive_subset_attack(pub, ct)
        mitm = attacks.mitm_subset_attack(pub, ct)
        assert r in exh.candidates
        assert exh.candidates == mitm.candidates
        assert exh.recovered_h == r.weight


@pytest.mark.parametrize(
    "attack", [attacks.exhaustive_subset_attack, attacks.mitm_subset_attack]
)
@pytest.mark.parametrize("shift", ["plus-p", "zero"])
def test_attacks_reject_a_reduced_target_outside_the_group(attack, shift, tmp_path, capsys):
    pub, _ = modified.keygen(10, 8, random.Random(3))
    ct = modified.encrypt(pub, 5, random.Random(4))
    c1_dprime = ct.c1_dprime + pub.p if shift == "plus-p" else 0
    bad = modified.ModifiedCiphertext(ct.c1_prime, c1_dprime, ct.c2)
    with pytest.raises(MalformedCiphertext):
        attack(pub, bad)
    key = tmp_path / "pub.key"
    keyfile.save_key(key, pub)
    strategy = "exhaustive" if attack is attacks.exhaustive_subset_attack else "mitm"
    argv = ["attack", "--key", str(key), "--strategy", strategy]
    assert cli.main(argv + ["--ciphertext", keyfile.ciphertext_to_text(bad)]) == 1
    assert "[1, p)" in capsys.readouterr().err


def test_mitm_refuses_a_hand_edited_key_with_a_non_invertible_u():
    # Original key files are not certified on parse, so p = 15 gets through.
    text = keyfile._emit("original", "public", [("n", "2"), ("p", "f"), ("s", "2,2"), ("u", "4,3")])
    pub = keyfile.parse_key(text)
    ct = akleylek.AkleylekCiphertext(2, 3)
    assert attacks.exhaustive_subset_attack(pub, ct).candidates == (BitVector((0, 1)),)
    # the unreduced target is filtered mod FILTER_MODULUS, where 4 and 3 are invertible
    assert attacks.mitm_subset_attack(pub, ct, split=1).candidates == (BitVector((0, 1)),)
    # a right-half u_j that is a multiple of the filter prime forces matching mod p,
    # and 3 * FILTER_MODULUS has no inverse mod p = 5 * FILTER_MODULUS
    q = attacks.FILTER_MODULUS
    fields = [("n", "2"), ("p", f"{5 * q:x}"), ("s", "2,2"), ("u", f"4,{3 * q:x}")]
    pub = keyfile.parse_key(keyfile._emit("original", "public", fields))
    ct = akleylek.AkleylekCiphertext(2, 3 * q)
    assert attacks.exhaustive_subset_attack(pub, ct).candidates == (BitVector((0, 1)),)
    with pytest.raises(ParameterError):
        attacks.mitm_subset_attack(pub, ct, split=1)


def test_filter_modulus_is_the_largest_30_bit_prime():
    # one CPython digit per residue, and every u_i it does not divide is invertible mod it
    q = attacks.FILTER_MODULUS
    assert q.bit_length() == 30
    assert is_probable_prime(q)
    assert not any(is_probable_prime(v) for v in range(q + 1, 1 << 30))


def _with_multiples(rng, values, bound):
    """values with some entries replaced by c * (an earlier entry), kept below bound.

    One c serves the whole list, so u_j = c * u_i and u_l = c * u_k give
    the equal-weight collision u_j * u_k = u_i * u_l.
    """
    out = list(values)
    c = rng.randrange(2, 6)
    for j in rng.sample(range(1, len(out)), len(out) // 2):
        i = rng.randrange(j)
        if c * out[i] < bound:
            out[j] = c * out[i]
    return out


def agreement_instances():
    """(public key, ciphertext, secret key or None) on small keys of both schemes.

    Covers capacity-enforcing and undersized original keys, sequences and
    public keys with u_j = c * u_i over the integers (so equal products of
    one weight recur), and reduced keys with u_j = c * u_i mod p.
    """
    rng = random.Random(2024)
    out = []
    for trial in range(24):
        n = rng.randrange(3, 11)
        kind = trial % 4
        if kind == 0:
            pk, sk = akleylek.keygen(n, games.suggested_modulus_bits(n), rng)
        elif kind == 1:
            pk, sk = akleylek.keygen(n, rng.randrange(12, 40), rng, enforce_capacity=False)
        elif kind == 2:
            group = gen_safe_prime(rng.randrange(16, 40), rng)
            u = _with_multiples(rng, rng.sample(range(2, 40), n), group.p)
            pk, sk = akleylek.AkleylekPublicKey(n, group.p, (group.g,) * n, u), None
        else:
            group = gen_safe_prime(rng.randrange(10, 20), rng)
            u = _with_multiples(rng, rng.sample(range(2, group.p), n), 1 << 64)
            u = [v % group.p or 1 for v in u]
            pk, sk = modified.ModifiedPublicKey(n, group.p, (group.g,) * n, u), None
        for _ in range(3):
            chosen = rng.sample(range(n), rng.randrange(1, n + 1))
            if kind < 3:
                ct = akleylek.encrypt(pk, BitVector.from_indices(n, chosen))
            else:
                s, p = pk.s_value, pk.p
                c1 = pow(s, len(chosen), p)
                ct = modified.ModifiedCiphertext(c1, prod(pk.u[j] for j in chosen) % p, 1)
            out.append((pk, ct, sk, len(chosen)))
    # a secret sequence with a_j = c * a_i: {3, 26} and {6, 13} share the product 78
    pk, sk = akleylek.keypair_from_params(2579, 2, 1500, 348, (2, 3, 6, 13, 26, 53))
    for chosen in ([1, 4], [2, 3], [0, 5], [0, 1, 2, 3, 4, 5]):
        out.append((pk, akleylek.encrypt(pk, BitVector.from_indices(6, chosen)), sk, len(chosen)))
    return out


def reference_candidates(values, h, target, p=None):
    """Every weight-h subset whose product (mod p, when given) equals target."""
    n = len(values)
    hits = []
    for idx in itertools.combinations(range(n), h):
        product = prod(values[j] for j in idx)
        if (product if p is None else product % p) == target:
            hits.append(BitVector.from_indices(n, idx))
    return tuple(sorted(hits))


def test_every_search_agrees_with_a_combinations_reference():
    for pk, ct, sk, h in agreement_instances():
        n, reduced = pk.n, isinstance(pk, modified.ModifiedPublicKey)
        if reduced:
            target, p = ct.c1_dprime, pk.p
            assert attacks.recover_hamming_weight(pk, ct.c1_prime) == h
        else:
            target, p = ct.c2, None
        expected = reference_candidates(pk.u, h, target, p)
        assert expected  # the encrypted subset is always among them
        exh = attacks.exhaustive_subset_attack(pk, ct)
        assert exh.candidates == expected
        if reduced:
            assert exh.subsets_examined == binomial(n, h)
        else:
            within = sum(
                1 for idx in itertools.combinations(pk.u, h) if prod(idx) <= target
            )
            assert exh.subsets_examined == within
        for split in range(1, n):
            assert attacks.mitm_subset_attack(pk, ct, split).candidates == expected
        if not reduced:
            assert attacks.divisor_subset_attack(pk, ct).candidates == expected
        if sk is not None:
            d = akleylek.decrypt_d(sk, ct)
            assert akleylek.decrypt_all(sk, ct) == reference_candidates(sk.a.terms, h, d)


def test_exhaustive_row_step_agrees_with_the_reference(monkeypatch):
    """From h = 4 on, the last two factors are counted by bisection in rows of pair products.

    The keys carry u_j = c * u_i and one repeated u, so equal pair products
    recur across rows and within a row.  Besides the encrypted subset, each
    weight gets a target whose row cut lies below u_0 * u_1, so every row is
    empty, and one above the product of all u, so every row is whole.  A
    row bisection takes two arguments; the last factor's also passes first.
    """
    bisections = []
    monkeypatch.setattr(
        attacks, "bisect_right", lambda *a: bisections.append(a) or bisect.bisect_right(*a)
    )
    rng = random.Random(1974)
    for n in range(12, 17):
        u = _with_multiples(rng, rng.sample(range(2, 200), n), 1 << 61)
        u[-1] = u[0]
        pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(u))
        low = sorted(u)
        for h in range(3, n + 1):
            least = prod(low[: h - 2])  # the row cut is target // least
            emptied = least * low[0] * low[1] - 1
            assert emptied // least < low[0] * low[1]
            whole = prod(u) + 1
            assert whole // least >= low[-2] * low[-1]
            encrypted = prod(u[j] for j in rng.sample(range(n), h))
            for target in (encrypted, emptied, whole):
                bisections.clear()
                ct = akleylek.AkleylekCiphertext(3**h, target)
                exh = attacks.exhaustive_subset_attack(pk, ct)
                assert exh.candidates == reference_candidates(u, h, target)
                within = sum(1 for idx in itertools.combinations(u, h) if prod(idx) <= target)
                assert exh.subsets_examined == within
                if target != encrypted:
                    assert within == (binomial(n, h) if target == whole else 0)
                row_calls = [a for a in bisections if len(a) == 2]
                assert bool(row_calls) == (h >= 4 and within > 0)


def test_exhaustive_attack_report_is_pinned_on_seeded_keys():
    """One sha256 over (candidates, subsets_examined) for 3 keys at n = 20 and h = 3..8.

    The digest was computed with the walk of commit 303b84e, which visited
    every examined subset at its last factor, before the rows of pair
    products took over the last two factors; it must not move.
    """
    digest = hashlib.sha256()
    for seed in range(3):
        rng = random.Random(seed)
        pk, _ = akleylek.keygen(20, attacks_bits(20), rng)
        for h in range(3, 9):
            for _ in range(4):
                ct = akleylek.encrypt(pk, BitVector.from_indices(20, rng.sample(range(20), h)))
                report = attacks.exhaustive_subset_attack(pk, ct)
                pair = ([str(c) for c in report.candidates], report.subsets_examined)
                digest.update(repr(pair).encode())
    assert digest.hexdigest() == (
        "a2914790d578c42b2e3dde827cc58e1e87569bd8c9b0e45cfa6028a9ce03f68f"
    )


def test_exhaustive_count_report_is_pinned_on_seeded_keys():
    """One sha256 over (candidates, subsets_examined) for 3 keys at n = 24 and h = 9..12.

    Every call here takes the two-list count.  The digest was computed with
    the walk of commit af2c833, which visited prefixes at every h; it must
    not move.
    """
    digest = hashlib.sha256()
    for seed in range(3):
        rng = random.Random(seed)
        pk, _ = akleylek.keygen(24, attacks_bits(24), rng)
        for h in range(9, 13):
            assert attacks._count_pays(24, h)
            for _ in range(2):
                ct = akleylek.encrypt(pk, BitVector.from_indices(24, rng.sample(range(24), h)))
                report = attacks.exhaustive_subset_attack(pk, ct)
                pair = ([str(c) for c in report.candidates], report.subsets_examined)
                digest.update(repr(pair).encode())
    assert digest.hexdigest() == (
        "161d4f4ed9e2e78f51fd647000bca5e2430dba404621b693bcc36f1c80928bc4"
    )


def test_count_regime_rule_picks_the_lists_only_where_they_pay():
    # perfbench's attack-sweep band at n = 20
    assert [h for h in range(3, 9) if attacks._count_pays(20, h)] == [6, 7, 8]
    # the walk keeps h <= 3 and the wide keys where the lists would cost more than it
    for n, h in ((64, 4), (128, 3), (128, 2), (256, 2)):
        assert not attacks._count_pays(n, h)
    for n, h in ((24, 12), (32, 6), (40, 8)):
        assert attacks._count_pays(n, h)


def test_walk_and_count_helpers_give_equal_reports():
    """Both unreduced counters, called directly at every h on seeded and tie-heavy keys.

    Each must equal the brute-force count; the matches come from the divisor walk.
    """
    rng = random.Random(1981)
    keys = [akleylek.keygen(20, attacks_bits(20), rng)[0].u for _ in range(2)]
    keys.append(_with_multiples(rng, rng.sample(range(2, 300), 14), 1 << 61))
    keys.append([1 << j for j in range(12)])
    for u in keys:
        n = len(u)
        ascending = sorted(u)
        for h in range(1, n + 1):
            encrypted = prod(rng.sample(u, h))
            for target in (encrypted, encrypted - 1, encrypted + 1, prod(ascending[:h]) - 1):
                if target < 1:
                    continue
                within = sum(prod(c) <= target for c in itertools.combinations(u, h))
                assert attacks._walk_below(ascending, h, target) == within
                assert attacks._count_below(ascending, h, target) == within
                found, _ = numtheory.divisor_subsets(u, target, h)
                assert (found != []) == (target == encrypted)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exhaustive_count_agrees_with_the_reference_on_tie_heavy_keys(data):
    """Keys full of equal products, and targets one off a product of about 2000 bits."""
    n = data.draw(st.integers(12, 14), label="n")
    h = data.draw(st.sampled_from([h for h in range(4, n + 1) if attacks._count_pays(n, h)]))
    kind = data.draw(st.sampled_from(("powers", "repeats", "multiples")), label="kind")
    if kind == "powers":
        u = [1 << j for j in data.draw(st.permutations(range(n)))]
    else:
        width = 2000 // h  # bits per u_i, so a product has about 2000 bits
        u = [data.draw(st.integers(1 << (width - 1), 1 << width)) for _ in range(n)]
        for j in range(1, n):
            i = data.draw(st.integers(0, j - 1))
            if data.draw(st.booleans()):
                u[j] = u[i] * (1 if kind == "repeats" else data.draw(st.integers(2, 5)))
    pk = akleylek.AkleylekPublicKey(n=n, p=2**4423 - 1, s=(3,) * n, u=tuple(u))
    chosen = prod(u[j] for j in data.draw(st.permutations(range(n)))[:h])
    target = chosen + data.draw(st.sampled_from((-1, 0, 1)), label="offset")
    assume(target >= 1)
    exh = attacks.exhaustive_subset_attack(pk, akleylek.AkleylekCiphertext(3**h, target))
    assert exh.candidates == reference_candidates(u, h, target)
    within = sum(1 for idx in itertools.combinations(u, h) if prod(idx) <= target)
    assert exh.subsets_examined == within


# primes above every base value below, so none divides any u_i
PRIMES_OUTSIDE_THE_KEY = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_search_agrees_with_the_reference_on_targets_built_to_miss(data):
    n = data.draw(st.integers(2, 9), label="n")
    u = data.draw(st.lists(st.integers(1, 50), min_size=n, max_size=n), label="base")
    for j in range(1, n):
        i = data.draw(st.integers(0, j - 1))
        edit = data.draw(st.sampled_from(("keep", "repeat", "multiple", "one")))
        if edit == "repeat":
            u[j] = u[i]
        elif edit == "multiple":
            u[j] = data.draw(st.integers(2, 5)) * u[i]
        elif edit == "one":
            u[j] = 1
    pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(u))
    h = data.draw(st.integers(1, n), label="h")
    chosen = prod(u[j] for j in data.draw(st.permutations(range(n)))[:h])
    kind = data.draw(st.sampled_from(("plus-one", "minus-one", "times-prime", "below", "above")))
    if kind == "plus-one":
        target = chosen + 1
    elif kind == "minus-one":
        target = chosen - 1
    elif kind == "times-prime":
        target = chosen * data.draw(st.sampled_from(PRIMES_OUTSIDE_THE_KEY))
    elif kind == "below":
        target = prod(sorted(u)[:h]) - 1
    else:
        target = data.draw(st.integers(prod(u), 2 * prod(u)))
    assume(target >= 1)
    ct = akleylek.AkleylekCiphertext(3**h, target)
    expected = reference_candidates(u, h, target)
    if kind == "times-prime":
        assert expected == ()
    exh = attacks.exhaustive_subset_attack(pk, ct)
    assert exh.recovered_h == h
    assert exh.candidates == expected
    within = sum(1 for idx in itertools.combinations(u, h) if prod(idx) <= target)
    assert exh.subsets_examined == within
    if kind == "below":
        assert within == 0
    elif kind == "above":
        assert within == binomial(n, h)
    for split in range(1, n):
        assert attacks.mitm_subset_attack(pk, ct, split).candidates == expected
    assert attacks.divisor_subset_attack(pk, ct).candidates == expected


def test_divisor_attack_refuses_past_its_node_cap_on_a_smooth_key(monkeypatch):
    # u = 1, 2, 4, ...: every u_i divides a power of two, so no remainder prunes the walk
    n, h = 14, 7
    u = tuple(1 << j for j in range(n))
    pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=u)
    ct = akleylek.AkleylekCiphertext(3**h, prod(u[3 : 3 + h]))
    report = attacks.divisor_subset_attack(pk, ct)
    assert report.candidates == reference_candidates(u, h, ct.c2)
    assert len(report.candidates) > 100 and report.subsets_examined > 500
    monkeypatch.setattr(numtheory, "MAX_WALK_NODES", report.subsets_examined)
    assert attacks.divisor_subset_attack(pk, ct).candidates == report.candidates
    monkeypatch.setattr(numtheory, "MAX_WALK_NODES", report.subsets_examined - 1)
    with pytest.raises(ParameterError, match="cap"):
        attacks.divisor_subset_attack(pk, ct)


def test_exhaustive_attack_inherits_the_divisor_walks_node_cap(monkeypatch, tmp_path, capsys):
    # the smooth key of the divisor attack's cap test: the exhaustive matches are that walk's
    n, h = 14, 7
    u = tuple(1 << j for j in range(n))
    pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=u)
    ct = akleylek.AkleylekCiphertext(3**h, prod(u[3 : 3 + h]))
    nodes = attacks.divisor_subset_attack(pk, ct).subsets_examined
    within = sum(prod(c) <= ct.c2 for c in itertools.combinations(u, h))
    monkeypatch.setattr(numtheory, "MAX_WALK_NODES", nodes)
    report = attacks.exhaustive_subset_attack(pk, ct)
    assert report.candidates == attacks.divisor_subset_attack(pk, ct).candidates
    assert report.subsets_examined == within
    monkeypatch.setattr(numtheory, "MAX_WALK_NODES", nodes - 1)
    with pytest.raises(ParameterError, match="cap"):
        attacks.exhaustive_subset_attack(pk, ct)
    path = tmp_path / "smooth.pub"
    path.write_text(keyfile.serialize_key(pk))
    argv = ["attack", "--key", str(path), "--ciphertext", f"{ct.c1} {ct.c2}"]
    assert cli.main([*argv, "--strategy", "exhaustive"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the divisor walk passed its cap of {nodes - 1} nodes\n"


def test_mitm_confirms_every_filter_hit_by_its_integer_product():
    # u_(j+1) = u_j + FILTER_MODULUS: every pair is congruent mod the filter
    # prime, so each weight-h product collides mod it with up to 2^h others.
    q = attacks.FILTER_MODULUS
    rng = random.Random(7)
    base = rng.sample(range(2, 60), 5)
    u = [v for b in base for v in (b, b + q)]
    n = len(u)
    pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(u))
    for h in (1, 2, 3, 5):
        for _ in range(3):
            chosen = prod(rng.sample(u, h))
            # the second target is congruent to a product mod q but none over the integers
            for target in (chosen, chosen + q * prod(base)):
                ct = akleylek.AkleylekCiphertext(3**h, target)
                expected = reference_candidates(u, h, target)
                assert bool(expected) == (target == chosen)
                assert attacks.exhaustive_subset_attack(pk, ct).candidates == expected
                for split in range(1, n):
                    assert attacks.mitm_subset_attack(pk, ct, split).candidates == expected


def test_mitm_falls_back_to_p_when_a_u_is_a_multiple_of_the_filter_prime():
    q = attacks.FILTER_MODULUS
    u = [5, 7, 11, 13, 17, 3 * q]  # the last index is right of every split
    n = len(u)
    pk = akleylek.AkleylekPublicKey(n=n, p=2**61 - 1, s=(3,) * n, u=tuple(u))
    for chosen in ([5], [0, 5], [1, 2, 5], [0, 3, 4], [0, 1, 2, 3, 4, 5]):
        ct = akleylek.encrypt(pk, BitVector.from_indices(n, chosen))
        expected = attacks.exhaustive_subset_attack(pk, ct).candidates
        assert expected == reference_candidates(u, len(chosen), ct.c2)
        for split in range(1, n):
            assert attacks.mitm_subset_attack(pk, ct, split).candidates == expected


def test_mitm_inverts_once_per_right_index_and_lists_every_subset(monkeypatch):
    calls = []

    def counting_mod_inv(a, modulus):
        calls.append((a, modulus))
        return pow(a, -1, modulus)

    monkeypatch.setattr(attacks, "mod_inv", counting_mod_inv)
    rng = random.Random(99)
    orig_pk, _ = akleylek.keygen(12, games.suggested_modulus_bits(12), rng)
    mod_pk, _ = modified.keygen(12, 10, rng)
    for h in (1, 4, 7):
        r = BitVector.from_indices(12, rng.sample(range(12), h))
        cts = [(orig_pk, akleylek.encrypt(orig_pk, r))]
        cts.append((mod_pk, modified.encrypt_with_randomness(mod_pk, 3, r)))
        for pk, ct in cts:
            for split in (1, 5, 6, 11):
                calls.clear()
                report = attacks.mitm_subset_attack(pk, ct, split)
                assert r in report.candidates
                assert len(calls) <= 12 - split
                # an unreduced C2 is filtered mod the 30-bit prime, a reduced C1'' mod p
                filtered = attacks.FILTER_MODULUS if pk is orig_pk else pk.p
                assert {modulus for _, modulus in calls} == {filtered}
                listed = sum(comb(split, w) + comb(12 - split, w) for w in range(h + 1))
                assert report.subsets_examined == listed


def _mitm_report(pk, ct, split=None):
    """A MITM report without its elapsed time."""
    report = attacks.mitm_subset_attack(pk, ct, split)
    return report.recovered_h, report.candidates, report.subsets_examined, report.predicted_bound


def _weight_h_ciphertext(pk, rng, h):
    """A ciphertext of pk whose attacked subset, drawn from rng, has weight h."""
    chosen = BitVector.from_indices(pk.n, rng.sample(range(pk.n), h))
    if isinstance(pk, modified.ModifiedPublicKey):
        while chosen.as_int < 2:  # the randomness r must not be 0 or 1
            chosen = BitVector.from_indices(pk.n, rng.sample(range(pk.n), h))
        return modified.encrypt_with_randomness(pk, rng.randrange(1, pk.max_message + 1), chosen)
    return akleylek.encrypt(pk, chosen)


def test_warm_mitm_tables_give_the_cold_report_in_any_order_of_weights():
    rng = random.Random(23)
    keys = [akleylek.keygen(14, attacks_bits(14), rng)[0], modified.keygen(14, 10, rng)[0]]
    for pk in keys:
        calls = [(h, rng.choice((None, 4))) for h in range(1, 9) for _ in range(20)]
        rng.shuffle(calls)
        attacks._TABLES.clear()
        for h, split in calls:
            ct = _weight_h_ciphertext(pk, rng, h)
            warm = _mitm_report(pk, ct, split)
            kept = dict(attacks._TABLES[pk])
            attacks._TABLES.clear()
            assert warm == _mitm_report(pk, ct, split)
            attacks._TABLES[pk] = kept  # the next call sees every table built so far
            assert warm[1] == attacks.exhaustive_subset_attack(pk, ct).candidates


def test_a_warm_mitm_call_inverts_nothing(monkeypatch):
    calls = []

    def counting_mod_inv(a, modulus):
        calls.append(modulus)
        return pow(a, -1, modulus)

    monkeypatch.setattr(attacks, "mod_inv", counting_mod_inv)
    rng = random.Random(5)
    attacks._TABLES.clear()
    for pk in (akleylek.keygen(12, attacks_bits(12), rng)[0], modified.keygen(12, 10, rng)[0]):
        attacks.mitm_subset_attack(pk, _weight_h_ciphertext(pk, rng, 6))
        assert calls
        calls.clear()
        for h in (6, 3, 1, 5):
            assert attacks.mitm_subset_attack(pk, _weight_h_ciphertext(pk, rng, h)).candidates
        assert calls == []


def test_mitm_tables_live_as_long_as_their_key_and_a_failed_build_keeps_none():
    attacks._TABLES.clear()
    pk, _ = akleylek.keygen(10, attacks_bits(10), random.Random(8))
    ct = akleylek.encrypt(pk, BitVector.from_indices(10, [1, 4, 7]))
    attacks.mitm_subset_attack(pk, ct)
    attacks.mitm_subset_attack(pk, ct, split=3)
    assert len(attacks._TABLES) == 1 and len(attacks._TABLES[pk]) == 2
    del pk
    gc.collect()
    assert len(attacks._TABLES) == 0
    # 3 * FILTER_MODULUS forces matching mod p = 5 * FILTER_MODULUS, where it has no inverse
    q = attacks.FILTER_MODULUS
    fields = [("n", "2"), ("p", f"{5 * q:x}"), ("s", "2,2"), ("u", f"4,{3 * q:x}")]
    pub = keyfile.parse_key(keyfile._emit("original", "public", fields))
    for _ in range(2):
        with pytest.raises(ParameterError):
            attacks.mitm_subset_attack(pub, akleylek.AkleylekCiphertext(2, 3 * q), split=1)
        assert pub not in attacks._TABLES


def test_equal_keys_parsed_from_one_text_give_equal_reports():
    rng = random.Random(9)
    for pk in (akleylek.keygen(12, attacks_bits(12), rng)[0], modified.keygen(12, 10, rng)[0]):
        text = keyfile.serialize_key(pk)
        first, second = keyfile.parse_key(text), keyfile.parse_key(text)
        assert first == second and first is not second
        attacks._TABLES.clear()
        cts = [_weight_h_ciphertext(pk, rng, h) for h in (5, 2, 7)]
        for ct in cts:
            assert _mitm_report(first, ct) == _mitm_report(second, ct)
        expected = [_mitm_report(first, ct) for ct in cts]
        del first  # drops the tables the two keys shared
        gc.collect()
        assert [_mitm_report(second, ct) for ct in cts] == expected


def test_mitm_on_targets_that_the_matching_modulus_divides():
    # A normal original key, matched mod FILTER_MODULUS: a target that prime
    # divides has t = 0, and no subset of the u_i reaches it.
    q = attacks.FILTER_MODULUS
    rng = random.Random(12)
    pk, _ = akleylek.keygen(10, attacks_bits(10), rng)
    assert all(x % q for x in pk.u)
    for h in (1, 3, 5, 10):
        for target in (q, q * prod(rng.sample(pk.u, h - 1)), q**h):
            ct = akleylek.AkleylekCiphertext(pow(pk.s_value, h), target)
            assert reference_candidates(pk.u, h, target) == ()
            for split in (None, 1, 9):
                assert attacks.mitm_subset_attack(pk, ct, split).candidates == ()
    # A hand-edited key with a composite p above 2^61, matched mod p, where a
    # hash is not its residue: t = 15q and t = 21 share a factor with p, and
    # both have solutions.
    u = [3, 5, 3 * q, 7, 11, 13]
    hex_u = ",".join(f"{x:x}" for x in u)
    fields = [("n", "6"), ("p", f"{15 * q << 41:x}"), ("s", ",".join(["2"] * 6)), ("u", hex_u)]
    pub = keyfile.parse_key(keyfile._emit("original", "public", fields))
    for target in (15 * q, 21, 3 * 7 * 11, 45 * q * 11):
        attacks._TABLES.clear()  # so each h builds tables of its own
        for h in range(1, 7):
            expected = reference_candidates(u, h, target)
            ct = akleylek.AkleylekCiphertext(2**h, target)
            for split in (3, 4, 5):  # 3, 5 and 3q, not invertible mod p, stay left
                assert attacks.mitm_subset_attack(pub, ct, split).candidates == expected
            assert bool(expected) == ((h, target) in ((2, 15 * q), (2, 21), (3, 231), (4, 495 * q)))


def test_colex_lists_unrank_to_the_subset_each_position_holds():
    """Both joins, the MITM's products mod q and the count's log sums, keep one rank contract."""
    q = attacks.FILTER_MODULUS
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for size in range(1, 11):
        factors = primes[:size]
        logs = list(map(log2, factors))
        products = attacks._colex_lists(factors, size, [1], attacks._times_mod(q))
        sums = attacks._colex_lists(logs, size, array("d", [0.0]), attacks._add)
        for w in range(size + 1):
            assert len(products[w]) == len(sums[w]) == comb(size, w)
            for pos in range(comb(size, w)):
                chosen = sorted(attacks._colex_subset(pos, w, size))
                assert len(set(chosen)) == w and all(0 <= c < size for c in chosen)
                assert products[w][pos] == prod(factors[c] for c in chosen) % q
                assert sums[w][pos] == functools.reduce(operator.add, (logs[c] for c in chosen), 0.0)


def test_complexity_profile_regimes():
    prof = attacks.attack_complexity_profile(16, 8)
    assert prof.regime == "medium"
    assert prof.bound == 2.0**16
    assert prof.exact == binomial(16, 8)

    prof = attacks.attack_complexity_profile(16, 0)
    assert prof.regime == "small" and prof.exact == 1

    prof = attacks.attack_complexity_profile(40, 3)
    assert prof.exact == 9880
    assert prof.regime == "small"

    prof = attacks.attack_complexity_profile(40, 37)
    assert prof.regime == "large"


def test_examined_counts_obey_the_entropy_chain():
    rng = random.Random(88)
    n = 12
    pub, _ = akleylek.keygen(n, attacks_bits(n), rng)
    for h in range(1, n):
        m = BitVector.from_indices(n, rng.sample(range(n), h))
        report = attacks.exhaustive_subset_attack(pub, akleylek.encrypt(pub, m))
        assert report.subsets_examined <= binomial(n, h) <= entropy_bound(n, h)


def test_deterministic_distinguisher_reads_the_challenge(toy_keypair):
    pub, _ = toy_keypair
    m0 = BitVector.from_string("01001")
    m1 = BitVector.from_string("00110")
    adversary = games.distinguisher_adversary(games.original_game_scheme(n=5))
    rng = random.Random(0)
    assert adversary.guess(pub, akleylek.encrypt(pub, m0), (m0, m1), None, rng) == 0
    assert adversary.guess(pub, akleylek.encrypt(pub, m1), (m0, m1), None, rng) == 1
