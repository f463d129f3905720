"""Attack suite: weight recovery, subset searches, and the cost profile."""

import random

import pytest

from knaplab import akleylek, attacks, games, modified
from knaplab.errors import MalformedCiphertext, ParameterError
from knaplab.numtheory import BitVector, binomial, entropy_bound


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
    "attack", [attacks.exhaustive_subset_attack, attacks.mitm_subset_attack]
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
    with pytest.raises(ParameterError):
        attacks.mitm_subset_attack(pub, ct, split=2, max_list_entries=8)


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


def test_complexity_profile_threshold_is_configurable():
    assert attacks.attack_complexity_profile(20, 6).regime == "small"
    assert (
        attacks.attack_complexity_profile(20, 6, medium_entropy_threshold=0.5).regime
        == "medium"
    )


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
