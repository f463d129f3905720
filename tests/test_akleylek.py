"""Original scheme: worked-key values, defects, and the completeness audit."""

import math
import random
from itertools import combinations

import pytest

from knaplab import akleylek, disguise
from knaplab.errors import MalformedCiphertext, ParameterError
from knaplab.numtheory import BitVector, SafePrimeGroup, SuperIncreasingSeq, gen_superincreasing


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
    for c2, expected in ((1, zero), (2, ()), (1 + 2579, zero)):
        assert akleylek.decrypt_all(sec, akleylek.AkleylekCiphertext(1, c2)) == expected, c2


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
