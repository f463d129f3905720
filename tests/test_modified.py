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
from operator import attrgetter

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
        q = (pub.p - 1) // 2
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
    for length in (pub.n - 1, pub.n + 1):
        with pytest.raises(ParameterError, match="randomness length"):
            encrypt_with_randomness(pub, 5, BitVector.from_int(3, length))


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
        r_hat, exact = recover_randomness(sec, ct.c1_prime, ct.c1_dprime)
        assert r_hat == r and exact is True


def test_recover_randomness_all_ones(keypair):
    pub, sec = keypair
    r = BitVector((1,) * pub.n)
    ct = encrypt_with_randomness(pub, 17, r)
    r_hat, exact = recover_randomness(sec, ct.c1_prime, ct.c1_dprime)
    assert r_hat == r and exact is True


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
        assert r_prime < (pub.p - 1) // 2
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
    c1 = attrgetter("c1_prime", "c1_dprime")
    collisions = sum(c1(encrypt(pub, m, rng)) == c1(encrypt(pub, m, rng)) for _ in range(1000))
    # per-pair collision probability is 1/(2^16 - 2); 1000 pairs stay near 0
    assert collisions <= 2


def test_bare_prime_forgery_fails_the_first_consistency_check(keypair):
    # C1' = 1 leaves C1'' = p_1 unmasked, so d-hat = p_1 reads back exactly
    # r-hat = e_1; the forgery fails on C1' = 1 != s^1
    pub, sec = keypair
    out = decrypt(sec, ModifiedCiphertext(1, sec.primes.primes[0], 7))
    assert not out.accepted
    assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT
    r_hat, exact = recover_randomness(sec, 1, sec.primes.primes[0])
    assert r_hat == BitVector.from_indices(pub.n, [0]) and exact is True
    assert sec.s_powers[1] != 1


def test_c1_dprime_times_a_non_key_factor_is_rejected(keypair):
    # t*C1'' unmasks to t*prod(S) < p: the same bits and weight, so C1' still
    # matches s^h and C2 still decodes to m; only the solver's exactness flag
    # tells this forgery of the challenge's message from an honest ciphertext
    pub, sec = keypair
    for r_int in (0b1100000000, 0b0100000101, 0b0010010000):
        r = BitVector.from_int(r_int, pub.n)
        ct = encrypt_with_randomness(pub, 55, r)
        for t in (2, 3, 5, 7):
            forged = ModifiedCiphertext(ct.c1_prime, ct.c1_dprime * t % pub.p, ct.c2)
            assert recover_randomness(sec, forged.c1_prime, forged.c1_dprime) == (r, False)
            assert decrypt(sec, forged).reason is RejectReason.RANDOMNESS_INCONSISTENT


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


def reference_decrypt(sk, ct):
    """`decrypt` as computed without the s^0..s^n table.

    It unmasks with C1'^x first, then re-derives both C1 components with pow.
    """
    p = sk.p
    if not all(1 <= v < p for v in (ct.c1_prime, ct.c1_dprime, ct.c2)):
        return DecryptOutcome.reject(RejectReason.MALFORMED)
    try:
        d = ct.c1_dprime * pow(pow(ct.c1_prime, sk.x, p), -1, p) % p
    except ValueError:  # C1'^x is not invertible mod p
        return DecryptOutcome.reject(RejectReason.MALFORMED)
    r_hat = BitVector(tuple(int(d % pi == 0) for pi in sk.primes))
    h_hat = r_hat.weight
    if r_hat.as_int < 2:
        return DecryptOutcome.reject(RejectReason.RANDOMNESS_INCONSISTENT)
    c1p = pow(pow(sk.g, sk.k, p), h_hat, p)
    selected = math.prod((pi for pi, b in zip(sk.primes, r_hat) if b), start=1)
    c1pp = pow(pow(sk.y, sk.k, p), h_hat, p) * selected % p
    if (ct.c1_prime, ct.c1_dprime) != (c1p, c1pp):
        return DecryptOutcome.reject(RejectReason.RANDOMNESS_INCONSISTENT)
    m_hat = pow(ct.c2, pow(r_hat.as_int | 1, -1, p - 1), p) - h_hat
    if not 1 <= m_hat <= p - sk.n - 1:
        return DecryptOutcome.reject(RejectReason.MESSAGE_INCONSISTENT)
    return DecryptOutcome.accept(m_hat)


@pytest.fixture(scope="module")
def seeded_keys():
    # n from 2 to 16, with even and odd x among them
    return [keygen(n, 8, random.Random(300 + n)) for n in (2, 3, 5, 8, 10, 12)] + [
        keygen(16, 16, random.Random(seed)) for seed in range(4)
    ]


def component(p):
    """A replacement ciphertext component, in range or just outside it."""
    return st.one_of(st.integers(min_value=1, max_value=p - 1), st.sampled_from([0, p, p + 1]))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_decrypt_matches_the_reference_on_tampered_ciphertexts(seeded_keys, data):
    pub, sec = data.draw(st.sampled_from(seeded_keys))
    p = pub.p
    m = data.draw(st.integers(min_value=1, max_value=pub.max_message))
    r = BitVector.from_int(data.draw(st.integers(min_value=2, max_value=(1 << pub.n) - 1)), pub.n)
    ct = encrypt_with_randomness(pub, m, r)
    c1p, c1pp, c2 = ct.c1_prime, ct.c1_dprime, ct.c2
    kind = data.draw(st.sampled_from(["honest", "random", "power", "negated", "bare-prime"]))
    if kind == "random":
        c1p = data.draw(component(p))
    elif kind == "power":
        c1p = pow(pub.s_value, data.draw(st.integers(min_value=0, max_value=pub.n)), p)
    elif kind == "negated":
        c1p = p - c1p
    elif kind == "bare-prime":
        c1p, c1pp = 1, sec.primes.primes[0]
    if data.draw(st.booleans()):
        c1pp = data.draw(component(p))
    if data.draw(st.booleans()):
        c2 = data.draw(component(p))
    query = ModifiedCiphertext(c1p, c1pp, c2)
    assert decrypt(sec, query) == reference_decrypt(sec, query)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_recovery_is_exact_iff_c1_dprime_is_the_honest_one_for_c1_prime(seeded_keys, data):
    # why decrypt checks C1'' by the solver's exactness instead of rebuilding it
    pub, sec = data.draw(st.sampled_from(seeded_keys))
    p, n = pub.p, pub.n
    yk = pow(sec.y, sec.k, p)
    h = data.draw(st.integers(min_value=0, max_value=n))
    c1p = pow(pub.s_value, h, p)
    # mask^h * prod(S) with |S| = h or not, or a C1'' honest for weight |S| != h
    kind = data.draw(st.sampled_from(["random", "size-h", "other-size", "honest-other-weight"]))
    if kind == "random":
        c1pp = data.draw(st.integers(min_value=1, max_value=p - 1))
    else:
        size = h if kind == "size-h" else data.draw(
            st.integers(min_value=0, max_value=n).filter(lambda j: j != h)
        )
        chosen = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=size, max_size=size))
        exponent = size if kind == "honest-other-weight" else h
        c1pp = pow(yk, exponent, p) * math.prod(sec.primes.primes[i] for i in chosen) % p
    r_hat, exact = recover_randomness(sec, c1p, c1pp)
    selected = math.prod((pi for pi, b in zip(sec.primes, r_hat) if b), start=1)
    assert exact == (c1pp == pow(yk, h, p) * selected % p)
    if kind in ("size-h", "other-size"):
        assert exact and r_hat == BitVector.from_indices(n, sorted(chosen))


def test_c1_prime_outside_the_power_table_is_rejected_before_recovery(keypair, monkeypatch):
    pub, sec = keypair
    p = pub.p
    assert sec.s_powers == tuple(pow(pub.s_value, j, p) for j in range(pub.n + 1))
    assert "s_powers" not in repr(sec)
    calls = []

    def counting_recover_randomness(*args):
        calls.append(args)
        return recover_randomness(*args)

    monkeypatch.setattr(modified, "recover_randomness", counting_recover_randomness)
    ct = encrypt(pub, 55, random.Random(24))
    rng = random.Random(25)
    outside = [p - ct.c1_prime, *(rng.randrange(1, p) for _ in range(50))]
    for c1p in outside:
        if c1p in sec.s_powers:
            continue
        out = decrypt(sec, ModifiedCiphertext(c1p, ct.c1_dprime, ct.c2))
        assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT
    assert calls == []
    assert decrypt(sec, ct) == DecryptOutcome.accept(55)
    assert len(calls) == 1
    bad_c1pp = ct.c1_dprime % (p - 1) + 1
    out = decrypt(sec, ModifiedCiphertext(ct.c1_prime, bad_c1pp, ct.c2))
    assert out.reason is RejectReason.RANDOMNESS_INCONSISTENT
    assert len(calls) == 2


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
    assert r_prime % 2 == 1 and r_prime < (sec.p - 1) // 2
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


@pytest.mark.parametrize(
    "p, g, x, k, message",
    [
        (5, 2, 3, 3, "modulus must exceed the product of all primes"),  # 2 * 3 >= 5
        (11, 2, 3, 3, "n must stay below bitlen"),  # n = 2 needs q >= 2^3, and q = 5
    ],
)
def test_secret_key_refuses_a_modulus_too_small_for_its_primes(p, g, x, k, message):
    with pytest.raises(ParameterError, match=message):
        modified.keypair_from_params(p, g, x, k, (2, 3))
