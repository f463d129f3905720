"""One record per cipher: every fact in which the two schemes differ.

The CLI, the key-file format, the attacks and the games look a scheme up
once, by name (``SCHEMES``) or by the exact type of a key or ciphertext
(``scheme_of``), and then work through its record instead of re-deciding
which cipher they hold.  Encryption and decryption are looked up on their
module at call time, so rebinding ``modified.decrypt`` (as a tracer does)
reaches every caller that goes through a record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import akleylek, modified
from .akleylek import AkleylekCiphertext, AkleylekPublicKey, AkleylekSecretKey
from .errors import ParameterError
from .modified import ModifiedCiphertext, ModifiedPublicKey, ModifiedSecretKey
from .numtheory import BitVector, PrimeSequence, SuperIncreasingSeq


@dataclass(frozen=True)
class Scheme:
    """Keys, ciphertexts and operations of one cipher.

    decrypt_all returns every message a ciphertext decodes to; the empty
    tuple is the single rejection symbol, whichever internal check fired.
    """

    name: str
    public_key: type
    secret_key: type
    ciphertext: type
    sequence: type  # the secret knapsack sequence's class
    sequence_field: str  # its attribute and key-file field name
    keypair_from_params: Callable  # (p, g, x, k, terms) -> (pk, sk)
    encrypt: Callable  # (pk, m, rng) -> ciphertext
    decrypt_all: Callable  # (sk, ct, limit) -> tuple of messages
    parse_message: Callable  # (CLI text) -> message
    sample_message: Callable  # (pk, rng) -> uniformly drawn valid message
    reduced: bool  # ciphertext components are reduced mod p
    certifies_group: bool  # parsing a key file certifies its safe-prime group
    attack_target: Callable  # ct -> (C1 = s^h, subset product of the public u_i)

    def decrypt(self, sk, ct):
        """The unique decoding, or None when there is none or more than one.

        None is the single error symbol, so an oracle built on this cannot
        leak which internal check fired.
        """
        got = self.decrypt_all(sk, ct, akleylek.DEFAULT_EXHAUSTIVE_LIMIT)
        return got[0] if len(got) == 1 else None

    def classify_roundtrip(self, sk, ct, m_true) -> str:
        got = self.decrypt_all(sk, ct, akleylek.DEFAULT_EXHAUSTIVE_LIMIT)
        if m_true not in got:
            return "failed"
        return "unique" if len(got) == 1 else "ambiguous"

    def sample_message_pair(self, pk, rng: random.Random):
        m0 = self.sample_message(pk, rng)
        while True:
            m1 = self.sample_message(pk, rng)
            if m1 != m0:
                return m0, m1


def _parse_int(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def _modified_decrypt_all(sk, ct, limit):
    out = modified.decrypt(sk, ct)
    return (out.message,) if out.accepted else ()


ORIGINAL = Scheme(
    name="original",
    public_key=AkleylekPublicKey,
    secret_key=AkleylekSecretKey,
    ciphertext=AkleylekCiphertext,
    sequence=SuperIncreasingSeq,
    sequence_field="a",
    keypair_from_params=akleylek.keypair_from_params,
    encrypt=lambda pk, m, rng: akleylek.encrypt(pk, m),
    decrypt_all=lambda sk, ct, limit: akleylek.decrypt_all(sk, ct, exhaustive_limit=limit),
    parse_message=BitVector.from_string,
    sample_message=lambda pk, rng: BitVector.from_int(rng.randrange(1, 1 << pk.n), pk.n),
    reduced=False,
    certifies_group=False,  # the published scheme trusts its key files
    attack_target=lambda ct: (ct.c1, ct.c2),
)

MODIFIED = Scheme(
    name="modified",
    public_key=ModifiedPublicKey,
    secret_key=ModifiedSecretKey,
    ciphertext=ModifiedCiphertext,
    sequence=PrimeSequence,
    sequence_field="primes",
    keypair_from_params=modified.keypair_from_params,
    encrypt=lambda pk, m, rng: modified.encrypt(pk, m, rng),
    decrypt_all=_modified_decrypt_all,
    parse_message=_parse_int,
    sample_message=lambda pk, rng: rng.randrange(1, pk.max_message + 1),
    reduced=True,
    certifies_group=True,
    attack_target=lambda ct: (ct.c1_prime, ct.c1_dprime),
)

SCHEMES = {scheme.name: scheme for scheme in (ORIGINAL, MODIFIED)}

_BY_TYPE = {
    cls: scheme
    for scheme in SCHEMES.values()
    for cls in (scheme.public_key, scheme.secret_key, scheme.ciphertext)
}


def scheme_of(obj) -> Scheme:
    """The scheme a key or ciphertext belongs to, by its exact type."""
    try:
        return _BY_TYPE[type(obj)]
    except KeyError:
        raise ParameterError(f"{type(obj).__name__} belongs to no scheme") from None
