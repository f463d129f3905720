"""Original scheme: worked-key values, defects, and the completeness audit."""

import hashlib
import math
import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaplab import akleylek, disguise, modified, numtheory
from knaplab.errors import MalformedCiphertext, ParameterError
from knaplab.games import suggested_modulus_bits
from knaplab.numtheory import (
    BitVector,
    SafePrimeGroup,
    SuperIncreasingSeq,
    gen_safe_prime,
    gen_superincreasing,
)


def brute_force_decryptions(terms, weight, target):
    """All weight-`weight` index subsets of `terms` whose product is `target`."""
    n = len(terms)
    out = []
    for idx in combinations(range(n), weight):
        if math.prod(terms[j] for j in idx) == target:
            out.append(BitVector.from_indices(n, idx))
    return sorted(out)


def test_toy_key_components(toy_keypair):
    pub, sec = toy_keypair
    assert sec.y == 862
    assert pub.s_value == 104
    assert pub.u == (2165, 1958, 1337, 95, 190)
    assert pub.p == 2579


def test_public_key_inverts_back_to_sequence(toy_keypair):
    pub, sec = toy_keypair
    yk_inv = pow(pow(sec.y, sec.k, sec.p), -1, sec.p)
    assert tuple(ui * yk_inv % sec.p for ui in pub.u) == sec.a.terms


def test_encrypt_weight_two_message(toy_keypair):
    pub, _ = toy_keypair
    ct = akleylek.encrypt(pub, BitVector.from_string("01001"))
    assert (ct.c1, ct.c2) == (10816, 372020)


def test_encrypt_singleton_gives_the_pair(toy_keypair):
    pub, _ = toy_keypair
    for i in range(5):
        ct = akleylek.encrypt(pub, BitVector.from_indices(5, [i]))
        assert (ct.c1, ct.c2) == (pub.s_value, pub.u[i])


def test_encrypt_is_deterministic(toy_keypair):
    pub, _ = toy_keypair
    m = BitVector.from_string("10010")
    assert akleylek.encrypt(pub, m) == akleylek.encrypt(pub, m)


def test_encrypt_rejects_wrong_length_and_zero(toy_keypair):
    pub, _ = toy_keypair
    with pytest.raises(ParameterError):
        akleylek.encrypt(pub, BitVector.from_string("0100"))
    with pytest.raises(ParameterError):
        akleylek.encrypt(pub, BitVector.from_string("00000"))


def test_decrypt_d_on_toy_ciphertext(toy_keypair):
    _, sec = toy_keypair
    assert akleylek.decrypt_d(sec, akleylek.AkleylekCiphertext(10816, 372020)) == 72


def test_decrypt_d_rejects_c1_divisible_by_p(toy_keypair):
    _, sec = toy_keypair
    with pytest.raises(MalformedCiphertext):
        akleylek.decrypt_d(sec, akleylek.AkleylekCiphertext(sec.p, 5))


def test_decrypt_all_finds_both_same_weight_decodings(toy_keypair):
    pub, sec = toy_keypair
    got = akleylek.decrypt_all(sec, akleylek.encrypt(pub, BitVector.from_string("01001")))
    assert set(got) == {BitVector.from_string("01001"), BitVector.from_string("00110")}
    # oracle agreement: weight is pinned to 2 by C1 = s^2, target product is 72
    assert sorted(got) == brute_force_decryptions(sec.a.terms, 2, 72)


def test_decrypt_all_weight_filter_excludes_third_preimage(toy_keypair):
    # 72 = 2*3*12 as well, but that decomposition has weight 3 while C1 says 2
    pub, sec = toy_keypair
    assert math.prod([2, 3, 12]) == 72
    got = akleylek.decrypt_all(sec, akleylek.encrypt(pub, BitVector.from_string("01001")))
    assert BitVector.from_string("11010") not in got


def test_overflowing_message_fails_decryption(toy_keypair):
    pub, sec = toy_keypair
    ct = akleylek.encrypt(pub, BitVector.from_string("01111"))
    assert ct.c1 == 116985856
    d = akleylek.decrypt_d(sec, ct)
    assert d == (3 * 6 * 12 * 24) % 2579 == 26
    assert d != 3 * 6 * 12 * 24
    assert akleylek.decrypt_all(sec, ct) == ()


def test_decrypt_all_round_trips_on_coprime_keys():
    rng = random.Random(5)
    pub, sec = akleylek.keygen(8, 64, rng)
    for _ in range(60):
        m = BitVector.from_int(rng.randrange(1, 256), 8)
        got = akleylek.decrypt_all(sec, akleylek.encrypt(pub, m))
        assert m in got


def test_decrypt_all_exhaustive_when_terms_are_coprime_and_p_dominates():
    # pairwise-coprime terms with p above their product decode uniquely
    pub, sec = akleylek.keypair_from_params(
        p=1423127, g=5, x=1234, k=987, a_terms=(3, 5, 16, 49, 121)
    )
    assert math.gcd(3 * 5, 16) == 1  # spot check the pairwise-coprime setup
    assert math.prod(sec.a.terms) < sec.p
    for value in range(1, 32):
        m = BitVector.from_int(value, 5)
        assert akleylek.decrypt_all(sec, akleylek.encrypt(pub, m)) == (m,)


def test_decrypt_all_refuses_oversized_n():
    rng = random.Random(6)
    pub, sec = akleylek.keygen(22, 300, rng)
    ct = akleylek.encrypt(pub, BitVector.from_int(5, 22))
    with pytest.raises(ParameterError):
        akleylek.decrypt_all(sec, ct)
    assert akleylek.decrypt_all(sec, ct, limit=22)


def test_decrypt_all_returns_empty_on_garbage_c1(toy_keypair):
    _, sec = toy_keypair
    assert akleylek.decrypt_all(sec, akleylek.AkleylekCiphertext(105, 372020)) == ()


def test_decrypt_all_reads_c1_of_one_as_weight_zero(toy_keypair):
    # C1 = 1 = s^0 pins h = 0; the all-zero message decodes iff d = 1
    _, sec = toy_keypair
    zero = (BitVector((0,) * 5),)
    for c2, expected in ((1, zero), (2, ()), (1 + 2579, zero), (2579, ())):
        assert akleylek.decrypt_all(sec, akleylek.AkleylekCiphertext(1, c2)) == expected, c2


def test_decrypt_all_rejects_c2_divisible_by_p_at_every_weight(toy_keypair):
    # C2 = 0 mod p unmasks to d = 0: every term divides 0, but no product of terms is 0
    pub, sec = toy_keypair
    for h in range(pub.n + 1):
        for c2 in (sec.p, 2 * sec.p):
            ct = akleylek.AkleylekCiphertext(pub.s_value**h, c2)
            assert akleylek.decrypt_all(sec, ct) == (), (h, c2)


def tie_heavy_keypair(terms, seed):
    """A key over the given sequence whose safe prime p just exceeds the terms' product."""
    rng = random.Random(seed)
    group = gen_safe_prime(math.prod(terms).bit_length() + 1, rng)
    x, k = rng.randrange(1, group.p - 1), rng.randrange(1, group.p - 1)
    return akleylek.keypair_from_params(group.p, group.g, x, k, terms)


# Super-increasing sequences whose subset products tie often at one weight
TIE_HEAVY_TERMS = (
    tuple(1 << j for j in range(12)),  # 1, 2, 4, ...: the product is 2^(sum of exponents)
    (2, 3) + tuple(3 << j for j in range(1, 11)),  # 2, 3, 6, 12, ...
    (1, 3) + tuple(5 << j for j in range(8)),  # 1, 3, 5, 10, 20, ...
)


@pytest.mark.parametrize("terms", TIE_HEAVY_TERMS, ids=lambda t: f"{t[:4]}-n{len(t)}")
def test_decrypt_all_matches_brute_force_on_tie_heavy_keys(terms):
    pub, sec = tie_heavy_keypair(terms, len(terms))
    assert math.prod(terms) < sec.p
    n = pub.n
    reference = cache(brute_force_decryptions)
    ambiguous = 0
    for value in range(1, 1 << n):
        m = BitVector.from_int(value, n)
        ct = akleylek.encrypt(pub, m)
        got = akleylek.decrypt_all(sec, ct)
        assert list(got) == reference(terms, m.weight, akleylek.decrypt_d(sec, ct)), m
        ambiguous += len(got) >= 2
    assert ambiguous > (1 << n) // 2


def test_decrypt_all_outputs_are_pinned_on_seeded_keys():
    """One sha256 over decrypt_all's candidates for 3 keys at n = 20 and h = 0..20.

    Each weight gets one honest ciphertext (none at h = 0) and one with
    C1 = s^h and a random C2 in [1, p).  The digest was computed with the
    walk of commit 2c9301c, which divided d by growing partial products and
    unmasked with C1^x; it must not move.
    """
    digest = hashlib.sha256()
    for seed in range(3):
        rng = random.Random(seed)
        pub, sec = akleylek.keygen(20, suggested_modulus_bits(20), rng)
        for h in range(21):
            cts = [akleylek.AkleylekCiphertext(pub.s_value**h, rng.randrange(1, pub.p))]
            if h:
                m = BitVector.from_indices(20, rng.sample(range(20), h))
                cts.append(akleylek.encrypt(pub, m))
            for ct in cts:
                digest.update(repr([str(c) for c in akleylek.decrypt_all(sec, ct)]).encode())
    assert digest.hexdigest() == (
        "9a4b2c90ba88d3ee89f7041e69a85d1b6c718f4b87608b64224d51715c8ed3ae"
    )


def test_decrypt_all_at_its_default_limit_stays_below_the_walk_cap():
    # each walk node is a distinct index subset, so n terms give at most 2^n nodes
    assert 2**akleylek.DEFAULT_EXHAUSTIVE_LIMIT < numtheory.MAX_WALK_NODES


@cache
def seeded_secret_keys():
    """Secret keys of both ciphers, three seeds each."""
    bits = suggested_modulus_bits(8)
    original = [akleylek.keygen(8, bits, random.Random(seed))[1] for seed in range(3)]
    hardened = [modified.keygen(8, 8, random.Random(seed))[1] for seed in range(3)]
    return original + hardened


def strip_outcome(step, *args):
    """What a strip step returns, or the type of the error it raises."""
    try:
        return step(*args)
    except ValueError as exc:
        return type(exc)


def assert_weight_step_matches_unmask(sk, h, c):
    expected = strip_outcome(sk.unmask, sk.s_value**h, c)
    assert strip_outcome(sk.unmask_weight, h, c) == expected, (sk, h, c)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weight_step_equals_unmask_of_s_to_the_h_on_seeded_keys(data):
    sk = data.draw(st.sampled_from(seeded_secret_keys()))
    c = data.draw(st.one_of(st.integers(0, 3 * sk.p), st.just(sk.p)))
    for h in range(sk.n + 1):
        assert_weight_step_matches_unmask(sk, h, c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weight_step_equals_unmask_of_s_to_the_h_over_a_composite_modulus(data):
    # The original scheme does not certify its key files, so p may be composite
    # and g, y or s may share a factor with it.
    p = data.draw(st.integers(2, 300)) * data.draw(st.integers(2, 300))
    g = data.draw(st.integers(0, 2 * p))
    x, k = data.draw(st.integers(1, p - 2)), data.draw(st.integers(1, p - 2))
    toy_terms = SuperIncreasingSeq((2, 3, 6, 12, 24))
    sk = akleylek.AkleylekSecretKey(p, g, pow(g, x, p), x, k, toy_terms)
    c = data.draw(st.integers(0, 3 * p))
    for h in range(sk.n + 1):
        assert_weight_step_matches_unmask(sk, h, c)


def test_keygen_invariants_hold_over_many_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        pub, sec = akleylek.keygen(8, 72, rng)
        assert pub.p == sec.p and pub.p > math.prod(sec.a.terms)
        assert pub.s_value == pow(sec.g, sec.k, sec.p)
        assert sec.y == pow(sec.g, sec.x, sec.p)
        yk = pow(sec.y, sec.k, sec.p)
        assert pub.u == tuple(yk * ai % sec.p for ai in sec.a.terms)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_modulus_exceeds_the_sequence_product_at_the_smallest_allowed_size(n):
    # keygen draws the sequence first, so the same seed redraws it; one bit more
    # than the product has is the smallest modulus_bits keygen accepts
    for seed in range(20):
        a = gen_superincreasing(n, random.Random(seed))
        bits = math.prod(a.terms).bit_length() + 1
        pub, sec = akleylek.keygen(n, bits, random.Random(seed))
        assert sec.a == a and pub.p.bit_length() == bits
        assert pub.p > math.prod(sec.a.terms)


def test_keygen_rejects_undersized_modulus():
    with pytest.raises(ParameterError):
        akleylek.keygen(16, 32, random.Random(0))


def test_keygen_allows_overflow_when_asked():
    pub, sec = akleylek.keygen(16, 32, random.Random(0), enforce_capacity=False)
    assert pub.p < math.prod(sec.a.terms)


def test_audit_of_toy_key_lists_known_failures(toy_keypair):
    pub, sec = toy_keypair
    report = akleylek.completeness_audit(sec, pub)
    groups = dict(report.collision_groups)
    assert 72 in groups
    members = set(groups[72])
    assert {BitVector.from_string("01001"), BitVector.from_string("00110")} <= members
    assert BitVector.from_string("01111") in report.overflow_messages
    assert report.unique_fraction == 25 / 32


def test_audit_counts_every_same_product_pair(toy_keypair):
    _, sec = toy_keypair
    # oracle: group all 32 subset products directly
    table = {}
    for mask in range(32):
        product = math.prod(
            (t for j, t in enumerate(sec.a.terms) if mask >> j & 1), start=1
        )
        table.setdefault(product, []).append(mask)
    expected = {p for p, masks in table.items() if len(masks) >= 2}
    report = akleylek.completeness_audit(sec)
    assert {p for p, _ in report.collision_groups} == expected


def test_audit_clean_key_has_no_failures():
    pub, sec = akleylek.keypair_from_params(
        p=1423127, g=5, x=1234, k=987, a_terms=(3, 5, 16, 49, 121)
    )
    report = akleylek.completeness_audit(sec, pub)
    assert report.collision_groups == ()
    assert report.overflow_messages == ()
    assert report.unique_fraction == 1.0


def test_audit_rejects_mismatched_public_key(toy_keypair):
    _, sec = toy_keypair
    other_pub, _ = akleylek.keygen(5, 48, random.Random(1))
    with pytest.raises(ParameterError):
        akleylek.completeness_audit(sec, other_pub)


def test_toy_key_has_a_multi_decryption_message(toy_keypair):
    pub, sec = toy_keypair
    multi = [
        value
        for value in range(1, 32)
        if len(akleylek.decrypt_all(sec, akleylek.encrypt(pub, BitVector.from_int(value, 5)))) >= 2
    ]
    assert multi


def test_decrypt_composition_matches_subset_product():
    rng = random.Random(12)
    pub, sec = akleylek.keygen(10, 96, rng)
    for value in range(1, 1 << 10, 37):
        m = BitVector.from_int(value, 10)
        d = akleylek.decrypt_d(sec, akleylek.encrypt(pub, m))
        assert d == math.prod(t for t, b in zip(sec.a.terms, m) if b) % sec.p


@pytest.mark.parametrize("n", [1, 0, -2])
def test_keygen_refuses_n_below_two(n):
    with pytest.raises(ParameterError, match="need n >= 2"):
        akleylek.keygen(n, 40, random.Random(0))


def test_audit_refuses_n_above_its_limit(toy_keypair):
    _, sec = toy_keypair
    with pytest.raises(ParameterError, match="exceeds the exhaustive scan limit 4"):
        akleylek.completeness_audit(sec, limit=4)
    assert akleylek.completeness_audit(sec, limit=5).n == 5


def test_assemble_refuses_a_term_divisible_by_p(toy_keypair):
    _, sec = toy_keypair
    seq = SuperIncreasingSeq((2, 3, 6, 12, sec.p))
    group = SafePrimeGroup(sec.p, sec.g)
    with pytest.raises(ParameterError, match="nonzero mod p"):
        disguise.assemble(
            akleylek.AkleylekPublicKey, akleylek.AkleylekSecretKey, group, sec.x, sec.k, seq
        )
