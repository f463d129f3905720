"""Hardened scheme: key invariants, round trips, and consistency-check behavior.

The tampering tests pin down exactly what each check can and cannot catch:
substituting either C1 component trips the first consistency check, while a
substituted C2 is indistinguishable from an honest encryption of a different
message (raising to an exponent coprime to p-1 permutes the group, so every
C2 value has a valid root).  The game-harness module measures the same fact
at scale.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaplab import games, modified
from knaplab.errors import ParameterError
from knaplab.modified import (
    DecryptOutcome,
    ModifiedCiphertext,
    RejectReason,
    decrypt,
    encrypt,
    encrypt_with_randomness,
    keygen,
    recover_randomness,
)
from knaplab.numtheory import BitVector
from knaplab.schemes import MODIFIED


@pytest.fixture(scope="module")
def keypair():
    return keygen(10, 8, random.Random(42))


def honest_parts(pk, sk, m, r):
    """Recompute ciphertext pieces straight from the definitions."""
    h = r.weight
    r_prime = r.as_int + 1 if r.as_int % 2 == 0 else r.as_int
    c1p = pow(pk.s_value, h, pk.p)
    c1pp = (
        pow(sk.y, sk.k * h, sk.p)
        * math.prod((pi for pi, b in zip(sk.primes, r) if b), start=1)
        % sk.p
    )
    c2 = pow(m + h, r_prime, pk.p)
    return c1p, c1pp, c2, r_prime


def test_keygen_invariants_over_many_seeds():
    for seed in range(100):
        pub, sec = keygen(6, 6, random.Random(seed))
        assert pub.p == sec.p
        assert sec.p > sec.primes.product
        assert math.gcd(sec.k, sec.p - 1) == 1
        s = pub.s_value
        q = pub.q
        assert pow(s, 2, pub.p) != 1 and pow(s, q, pub.p) != 1  # s generates too
        yk = pow(sec.y, sec.k, sec.p)
        assert pub.u == tuple(yk * pi % sec.p for pi in sec.primes)
        assert sec.primes.n < q.bit_length() - 1


def test_keygen_modulus_dominates_prime_product():
    pub, sec = keygen(5, 8, random.Random(7))
    assert pub.p.bit_length() > sum(pi.bit_length() for pi in sec.primes) - 5
    assert pub.p > sec.primes.product


def test_public_key_inverts_back_to_primes(keypair):
    pub, sec = keypair
    yk_inv = pow(pow(sec.y, sec.k, sec.p), -1, sec.p)
    assert tuple(ui * yk_inv % sec.p for ui in pub.u) == sec.primes.primes


def test_encryption_is_randomized(keypair):
    pub, _ = keypair
    m = 777 % pub.max_message + 1
    seen = {encrypt(pub, m, random.Random(seed)) for seed in range(50)}
    assert len(seen) > 45  # collisions need identical 10-bit r draws


def test_single_bit_randomness_exposes_the_pair(keypair):
    pub, _ = keypair
    r = BitVector.from_indices(pub.n, [0])
    ct = encrypt_with_randomness(pub, 5, r)
    assert ct.c1_prime == pub.s_value
    assert ct.c1_dprime == pub.u[0]


def test_encrypt_validates_message_range(keypair):
    pub, _ = keypair
    rng = random.Random(0)
    with pytest.raises(ParameterError):
        encrypt(pub, 0, rng)
    with pytest.raises(ParameterError):
        encrypt(pub, pub.max_message + 1, rng)
    encrypt(pub, pub.max_message, rng)


def test_encrypt_rejects_degenerate_randomness(keypair):
    pub, _ = keypair
    with pytest.raises(ParameterError):
        encrypt_with_randomness(pub, 5, BitVector((0,) * pub.n))
    with pytest.raises(ParameterError):
        encrypt_with_randomness(pub, 5, BitVector.from_int(1, pub.n))


def test_round_trip_thousand_messages(keypair):
    pub, sec = keypair
    rng = random.Random(9)
    for _ in range(1000):
        m = rng.randrange(1, pub.max_message + 1)
        out = decrypt(sec, encrypt(pub, m, rng))
        assert out.accepted and out.message == m


def test_round_trip_exhaustive_over_all_randomness():
    pub, sec = keygen(10, 8, random.Random(13))
    m = 4242 % pub.max_message + 1
    for r_int in range(2, 1 << 10):
        r = BitVector.from_int(r_int, 10)
        out = decrypt(sec, encrypt_with_randomness(pub, m, r))
        assert out.accepted and out.message == m, r_int


def test_recover_randomness_is_exact_for_honest_ciphertexts():
    pub, sec = keygen(8, 7, random.Random(14))
    for r_int in range(2, 256):
        r = BitVector.from_int(r_int, 8)
        ct = encrypt_with_randomness(pub, 99 % pub.max_message + 1, r)
        r_hat, h_hat = recover_randomness(sec, ct.c1_prime, ct.c1_dprime)
        assert r_hat == r and h_hat == r.weight


def test_recover_randomness_all_ones(keypair):
    pub, sec = keypair
    r = BitVector((1,) * pub.n)
    ct = encrypt_with_randomness(pub, 17, r)
    r_hat, h_hat = recover_randomness(sec, ct.c1_prime, ct.c1_dprime)
    assert r_hat == r and h_hat == pub.n


def test_first_consistency_identity_holds_for_honest_ciphertexts(keypair):
    pub, sec = keypair
    rng = random.Random(15)
    for _ in range(50):
        m = rng.randrange(1, pub.max_message + 1)
        r = BitVector.from_int(rng.randrange(2, 1 << pub.n), pub.n)
        ct = encrypt_with_randomness(pub, m, r)
        c1p, c1pp, c2, _ = honest_parts(pub, sec, m, r)
        assert (ct.c1_prime, ct.c1_dprime, ct.c2) == (c1p, c1pp, c2)


def test_randomness_to_c1_is_injective():
    pub, _ = keygen(10, 8, random.Random(16))
    seen = set()
    for r_int in range(2, 1 << 10):
        r = BitVector.from_int(r_int, 10)
        ct = encrypt_with_randomness(pub, 7, r)
        seen.add((ct.c1_prime, ct.c1_dprime))
    assert len(seen) == (1 << 10) - 2


def test_parity_adjusted_exponent_is_always_invertible():
    pub, sec = keygen(12, 8, random.Random(17))
    rng = random.Random(18)
    for _ in range(200):
        r = BitVector.from_int(rng.randrange(2, 1 << 12), 12)
        r_prime = r.as_int + 1 if r.as_int % 2 == 0 else r.as_int
        assert r_prime < pub.q
        w = pow(r_prime, -1, pub.p - 1)
        assert w * r_prime % (pub.p - 1) == 1


def test_adjusted_exponent_coprimality_across_thousand_fresh_keys():
    # 100 key pairs x 10 encryptions: gcd(r', p-1) = 1 on every single run
    rng = random.Random(180)
    for _ in range(100):
        pub, _ = keygen(6, 6, rng)
        for _ in range(10):
            r = BitVector.from_int(rng.randrange(2, 1 << 6), 6)
            r_prime = r.as_int + 1 if r.as_int % 2 == 0 else r.as_int
            assert math.gcd(r_prime, pub.p - 1) == 1


def test_two_seeded_encryptions_rarely_share_c1():
    pub, _ = keygen(16, 8, random.Random(181))
    rng = random.Random(182)
    m = 999 % pub.max_message + 1
    collisions = sum(
        encrypt(pub, m, rng).c1 == encrypt(pub, m, rng).c1 for _ in range(1000)
    )
    # per-pair collision probability is 1/(2^16 - 2); 1000 pairs stay near 0
    assert collisions <= 2


def test_bare_prime_forgery_fails_the_first_consistency_check(keypair):
    # d-hat = p_1 reads back r-hat = e_1, but C1'' = p_1 cannot match the
    # masked product y^k * p_1 the check recomputes
    pub, sec = keypair
    out = decrypt(sec, ModifiedCiphertext(1, sec.primes.primes[0], 7))
    assert not out.accepted
    assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT
    r_hat, h_hat = recover_randomness(sec, 1, sec.primes.primes[0])
    assert r_hat == BitVector.from_indices(pub.n, [0]) and h_hat == 1


def test_c1_prime_substitution_is_rejected(keypair):
    pub, sec = keypair
    rng = random.Random(19)
    ct = encrypt(pub, 55, rng)
    for _ in range(200):
        bad = rng.randrange(1, pub.p)
        if bad == ct.c1_prime:
            continue
        out = decrypt(sec, ModifiedCiphertext(bad, ct.c1_dprime, ct.c2))
        assert not out.accepted


def test_c1_dprime_substitution_is_rejected(keypair):
    pub, sec = keypair
    rng = random.Random(20)
    ct = encrypt(pub, 55, rng)
    for _ in range(200):
        bad = rng.randrange(1, pub.p)
        if bad == ct.c1_dprime:
            continue
        out = decrypt(sec, ModifiedCiphertext(ct.c1_prime, bad, ct.c2))
        assert not out.accepted
        assert out.reason in (
            RejectReason.RANDOMNESS_INCONSISTENT,
            RejectReason.MALFORMED,
        )


def test_c1_prime_negation_is_rejected():
    # With x even, (p - C1')^x = C1'^x, so the negated C1' strips to the same
    # d and the same r; only comparing C1' itself with s^h tells them apart.
    # Without that comparison a decryption oracle would answer the query
    # with the challenge message.
    even_x = 0
    for seed in range(40):
        pub, sec = keygen(16, 16, random.Random(seed))
        even_x += sec.x % 2 == 0
        rng = random.Random(1000 + seed)
        m = rng.randrange(1, pub.max_message + 1)
        ct = encrypt(pub, m, rng)
        negated = ModifiedCiphertext(pub.p - ct.c1_prime, ct.c1_dprime, ct.c2)
        out = decrypt(sec, negated)
        assert not out.accepted, seed
        assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT, seed
        oracle = games.DecryptionOracle(MODIFIED.decrypt, sec)
        oracle.set_challenge(ct)
        assert oracle.query(negated) is None
        assert oracle.query(encrypt(pub, m, rng)) == m
        assert oracle.refused == 0 and oracle.rejections == 1
    assert even_x >= 10  # the keys the negation used to fool are in the sample


def test_c2_substitution_decrypts_to_the_root_message(keypair):
    # A replaced C2 is indistinguishable from an honest encryption of the
    # message C2^w - h under the same randomness, so decryption accepts it
    # and returns exactly that value whenever it lands in range.
    pub, sec = keypair
    rng = random.Random(21)
    m = 55
    r = BitVector.from_int(rng.randrange(2, 1 << pub.n), pub.n)
    ct = encrypt_with_randomness(pub, m, r)
    _, _, _, r_prime = honest_parts(pub, sec, m, r)
    w = pow(r_prime, -1, pub.p - 1)
    accepted = 0
    for _ in range(200):
        bad = rng.randrange(1, pub.p)
        if bad == ct.c2:
            continue
        out = decrypt(sec, ModifiedCiphertext(ct.c1_prime, ct.c1_dprime, bad))
        root = pow(bad, w, pub.p) - r.weight
        if 1 <= root <= pub.max_message:
            assert out.accepted and out.message == root
            accepted += 1
            # and the mutated ciphertext really is Enc(root; r)
            assert encrypt_with_randomness(pub, root, r) == ModifiedCiphertext(
                ct.c1_prime, ct.c1_dprime, bad
            )
        else:
            assert not out.accepted
    assert accepted > 150


def test_zero_randomness_forgery_is_rejected(keypair):
    # d-hat = 1 implies the all-zero randomness, which honest encryption bans
    pub, sec = keypair
    out = decrypt(sec, ModifiedCiphertext(1, 1, 12345 % pub.p))
    assert not out.accepted
    assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT


def test_out_of_range_root_is_rejected(keypair):
    # craft C2 whose w-th root equals the weight, forcing m-hat = 0
    pub, sec = keypair
    rng = random.Random(22)
    r = BitVector.from_int(rng.randrange(2, 1 << pub.n), pub.n)
    ct = encrypt_with_randomness(pub, 55, r)
    _, _, _, r_prime = honest_parts(pub, sec, 55, r)
    bad_c2 = pow(r.weight, r_prime, pub.p)
    out = decrypt(sec, ModifiedCiphertext(ct.c1_prime, ct.c1_dprime, bad_c2))
    assert not out.accepted
    assert out.reason is RejectReason.MESSAGE_INCONSISTENT


def test_out_of_range_components_are_malformed(keypair):
    pub, sec = keypair
    ct = encrypt(pub, 5, random.Random(23))
    for mangled in (
        ModifiedCiphertext(0, ct.c1_dprime, ct.c2),
        ModifiedCiphertext(ct.c1_prime, pub.p, ct.c2),
        ModifiedCiphertext(ct.c1_prime, ct.c1_dprime, 0),
    ):
        out = decrypt(sec, mangled)
        assert not out.accepted and out.reason is RejectReason.MALFORMED


def test_decrypt_outcome_enforces_exactly_one_variant():
    with pytest.raises(ValueError):
        DecryptOutcome(message=None, reason=None)
    with pytest.raises(ValueError):
        DecryptOutcome(message=1, reason=RejectReason.MALFORMED)
    assert DecryptOutcome.accept(4).accepted
    assert not DecryptOutcome.reject(RejectReason.MALFORMED).accepted


def test_keygen_rejects_tiny_n():
    with pytest.raises(ParameterError):
        keygen(1, 8, random.Random(0))


def test_keypair_from_params_round_trip(keypair):
    pub, sec = keypair
    pub2, sec2 = modified.keypair_from_params(sec.p, sec.g, sec.x, sec.k, sec.primes.primes)
    assert pub2 == pub and sec2 == sec


key_sizes_seeds_and_randomness = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=2, max_value=(1 << n) - 1),
    )
)


@settings(max_examples=60, deadline=None)
@given(key_sizes_seeds_and_randomness)
def test_parity_adjusted_randomness_is_odd_below_q_and_invertible(n_seed_r):
    # why decrypt needs no failure branch around mod_inv(r', p - 1)
    n, seed, r_int = n_seed_r
    _, sec = keygen(n, 8, random.Random(seed))
    r_prime = modified._parity_adjust(r_int)
    assert r_prime % 2 == 1 and r_prime < sec.q
    assert math.gcd(r_prime, sec.p - 1) == 1
    assert r_prime * modified.mod_inv(r_prime, sec.p - 1) % (sec.p - 1) == 1


@settings(max_examples=60, deadline=None)
@given(key_sizes_seeds_and_randomness, st.data())
def test_raising_to_r_prime_undoes_the_root_for_every_c2(n_seed_r, data):
    # why decrypt no longer re-encrypts: C2 == (m-hat + h)^r' always holds
    n, seed, r_int = n_seed_r
    _, sec = keygen(n, 8, random.Random(seed))
    c2 = data.draw(st.integers(min_value=1, max_value=sec.p - 1))
    r_prime = modified._parity_adjust(r_int)
    w = pow(r_prime, -1, sec.p - 1)
    assert pow(pow(c2, w, sec.p), r_prime, sec.p) == c2
