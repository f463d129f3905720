"""The per-scheme records: type lookup and the operations built on their fields."""

import random
from collections import Counter

import pytest

from knaplab import akleylek, modified
from knaplab.errors import ParameterError
from knaplab.keyfile import KeyParams
from knaplab.numtheory import BitVector
from knaplab.schemes import MODIFIED, ORIGINAL, SCHEMES, scheme_of


def test_scheme_of_keys_and_ciphertexts(toy_keypair):
    pub, sec = toy_keypair
    assert scheme_of(pub) is scheme_of(sec) is ORIGINAL
    assert scheme_of(akleylek.AkleylekCiphertext(1, 1)) is ORIGINAL
    mpub, msec = modified.keygen(6, 6, random.Random(1))
    assert scheme_of(mpub) is scheme_of(msec) is MODIFIED
    assert scheme_of(modified.ModifiedCiphertext(1, 2, 3)) is MODIFIED
    assert SCHEMES == {"original": ORIGINAL, "modified": MODIFIED}
    for obj in (KeyParams("original", 2579, 2, 1500, 348, (2, 3)), 7, pub.u):
        with pytest.raises(ParameterError):
            scheme_of(obj)


def test_scheme_of_a_key_and_ciphertext_checks_that_they_match(toy_keypair):
    pub, sec = toy_keypair
    mpub, msec = modified.keygen(6, 6, random.Random(1))
    ct, mct = akleylek.AkleylekCiphertext(1, 1), modified.ModifiedCiphertext(1, 2, 3)
    assert scheme_of(pub, ct) is scheme_of(sec, ct) is ORIGINAL
    assert scheme_of(mpub, mct) is scheme_of(msec, mct) is MODIFIED
    for key, other in ((pub, mct), (sec, mct), (mpub, ct), (msec, ct), (pub, pub.u)):
        with pytest.raises(ParameterError, match="ciphertext does not belong to this key"):
            scheme_of(key, other)


def test_original_roundtrip_classes_match_the_audit(toy_keypair):
    pub, sec = toy_keypair
    messages = [BitVector.from_int(v, 5) for v in range(1, 32)]
    outcomes = Counter(
        ORIGINAL.classify_roundtrip(sec, ORIGINAL.encrypt(pub, m, None), m) for m in messages
    )
    audit = akleylek.completeness_audit(sec)
    assert outcomes["failed"] == len(audit.overflow_messages) == 3
    # the zero message is the one unique decoding the audit counts beyond these
    assert outcomes["unique"] + 1 == audit.unique_fraction * 32
    assert sum(outcomes.values()) == 31
    ambiguous = ORIGINAL.encrypt(pub, BitVector.from_string("01001"), None)
    assert ORIGINAL.decrypt(sec, ambiguous) is None
    lost = ORIGINAL.encrypt(pub, BitVector.from_string("01111"), None)
    assert ORIGINAL.decrypt_all(sec, lost, 20) == ()


def test_modified_decrypt_collapses_rejections_to_none():
    pub, sec = modified.keygen(8, 7, random.Random(2))
    rng = random.Random(3)
    m0, m1 = MODIFIED.sample_message_pair(pub, rng)
    assert m0 != m1 and 1 <= min(m0, m1) and max(m0, m1) <= pub.max_message
    ct = MODIFIED.encrypt(pub, m0, rng)
    assert MODIFIED.decrypt(sec, ct) == m0
    assert MODIFIED.classify_roundtrip(sec, ct, m0) == "unique"
    tampered = modified.ModifiedCiphertext(ct.c1_prime, ct.c1_dprime + 1, ct.c2)
    assert MODIFIED.decrypt_all(sec, tampered) == ()
    assert MODIFIED.decrypt(sec, tampered) is None
    assert MODIFIED.classify_roundtrip(sec, tampered, m0) == "failed"
    assert MODIFIED.parse_message("0x1e240") == MODIFIED.parse_message("123456") == 123456
