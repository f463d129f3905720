"""Executable security experiments for both ciphers.

Every experiment is a plain function over an explicit rng: the CCA2
indistinguishability game with a challenge-refusing decryption oracle, two
targeted ciphertext-malleation strategies, a component-mutation fuzzer, and
batch completeness trials.  Results report raw counts; nothing is averaged
away, and every accepted forgery is logged with enough seed material to
replay it.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass, fields, replace
from itertools import combinations
from typing import Callable

from . import akleylek, attacks, modified
from .errors import ParameterError
from .numtheory import BitVector
from .schemes import MODIFIED, ORIGINAL, Scheme

# every single component of the modified ciphertext, then every pair
MUTATION_KINDS = tuple(
    "+".join(kind)
    for size in (1, 2)
    for kind in combinations((f.name for f in fields(MODIFIED.ciphertext)), size)
)
MAX_FUZZ_FINDINGS = 25
FUZZ_KEYPAIRS = 20


@dataclass(frozen=True)
class ExperimentResult:
    trials: int
    wins: int
    rejections: int = 0
    findings: tuple = ()

    @property
    def advantage(self) -> float:
        return abs(self.wins / self.trials - 0.5)


@dataclass(frozen=True)
class CompletenessReport:
    trials: int
    unique: int
    ambiguous: int
    failed: int


@dataclass(frozen=True)
class GameScheme(Scheme):
    """A scheme record with key generation bound to fixed parameters."""

    keygen: Callable  # rng -> (pk, sk)


def suggested_modulus_bits(n: int, max_step: int = 10) -> int:
    """Modulus size that always dominates a max_step superincreasing product."""
    if max_step < 1:
        raise ParameterError(f"max_step must be >= 1, got {max_step}")

    return math.ceil(n * math.log2(max_step)) + n * (n - 1) // 2 + 3


def original_game_scheme(
    n: int = 16,
    modulus_bits: int | None = None,
    max_step: int = 10,
    allow_overflow: bool = False,
) -> GameScheme:
    bits = modulus_bits if modulus_bits is not None else suggested_modulus_bits(n, max_step)
    return GameScheme(
        **vars(ORIGINAL),
        keygen=lambda rng: akleylek.keygen(
            n, bits, rng, max_step=max_step, enforce_capacity=not allow_overflow
        ),
    )


def modified_game_scheme(n: int = 16, prime_bits: int = 8) -> GameScheme:
    return GameScheme(**vars(MODIFIED), keygen=lambda rng: modified.keygen(n, prime_bits, rng))


# Key-size builders by scheme name: their parameters are the sizes each scheme takes.
GAME_SCHEMES = {ORIGINAL.name: original_game_scheme, MODIFIED.name: modified_game_scheme}


class DecryptionOracle:
    """Decryption oracle that refuses the challenge ciphertext.

    Refused queries return the same None as rejected ones; the refusal
    counter exists only for the harness's own bookkeeping.
    """

    def __init__(self, decrypt_fn, sk):
        self._decrypt = decrypt_fn
        self._sk = sk
        self._challenge = None
        self.queries = 0
        self.refused = 0
        self.rejections = 0

    def set_challenge(self, ct) -> None:
        self._challenge = ct

    def query(self, ct):
        self.queries += 1
        if self._challenge is not None and ct == self._challenge:
            self.refused += 1
            return None
        out = self._decrypt(self._sk, ct)
        if out is None:
            self.rejections += 1
        return out


@dataclass(frozen=True)
class Adversary:
    """Two-stage strategy: pick a message pair, then guess which one was encrypted."""

    name: str
    choose: Callable  # (pk, oracle, rng) -> (m0, m1, state)
    guess: Callable  # (pk, challenge, state, oracle, rng) -> 0 | 1


def distinguisher_adversary(scheme: GameScheme) -> Adversary:
    """Re-encrypts m0 and compares against the challenge ciphertext."""

    def choose(pk, oracle, rng):
        m0, m1 = scheme.sample_message_pair(pk, rng)
        return m0, m1, (m0, m1)

    def guess(pk, challenge, state, oracle, rng):
        m0, _ = state
        return 0 if scheme.encrypt(pk, m0, rng) == challenge else 1

    return Adversary(name="deterministic-distinguisher", choose=choose, guess=guess)


def random_guess_adversary(scheme: GameScheme) -> Adversary:
    def choose(pk, oracle, rng):
        m0, m1 = scheme.sample_message_pair(pk, rng)
        return m0, m1, None

    def guess(pk, challenge, state, oracle, rng):
        return rng.getrandbits(1)

    return Adversary(name="random-guess", choose=choose, guess=guess)


def run_ind_cca2(
    scheme: GameScheme, adversary: Adversary, trials: int, rng: random.Random
) -> ExperimentResult:
    """Per trial: fresh keys, adversary picks (m0, m1), challenger encrypts m_b,
    adversary guesses b with oracle access to everything except the challenge."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    wins = 0
    rejections = 0
    for _ in range(trials):
        pk, sk = scheme.keygen(rng)
        oracle = DecryptionOracle(scheme.decrypt, sk)
        m0, m1, state = adversary.choose(pk, oracle, rng)
        b = rng.getrandbits(1)
        challenge = scheme.encrypt(pk, (m0, m1)[b], rng)
        oracle.set_challenge(challenge)
        b_guess = adversary.guess(pk, challenge, state, oracle, rng)
        if b_guess == b:
            wins += 1
        rejections += oracle.rejections
    return ExperimentResult(trials=trials, wins=wins, rejections=rejections)


def malleation_case2(challenge, pk, rng: random.Random, *, force_weight: int | None = None):
    """Keep C2, substitute the C1 of a fresh honest encryption under new randomness.

    force_weight pins the fresh randomness to a chosen Hamming weight, which
    lets the harness stage the worst case where both randomness values weigh
    the same.
    """
    n = pk.n
    if force_weight is not None and not 1 <= force_weight <= n:
        raise ParameterError("force_weight out of range")
    while True:
        if force_weight is None:
            r = BitVector.from_int(rng.randrange(2, 1 << n), n)
        else:
            r = BitVector.from_indices(n, rng.sample(range(n), force_weight))
            if r.as_int < 2:
                continue
        query = replace(modified.encrypt_with_randomness(pk, 1, r), c2=challenge.c2)
        if query != challenge:
            return query


@dataclass(frozen=True)
class MalleationFinding:
    trial: int
    seed: int
    query: tuple[int, ...]  # the ciphertext's components, in field order
    decrypted: int


def run_malleation_trials(
    strategy: str,
    trials: int,
    rng: random.Random,
    *,
    n: int = 16,
    prime_bits: int = 8,
    force_weight_match: bool = False,
) -> ExperimentResult:
    """Fresh keys and challenge per trial; apply the strategy; query the oracle.

    wins counts queries the oracle answered with a message (accepted
    forgeries); rejections counts the ones it answered with the error
    symbol.  Every acceptance is recorded with its per-trial seed.
    """
    if strategy not in ("case1", "case2"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    scheme = modified_game_scheme(n, prime_bits)
    findings: list[MalleationFinding] = []
    for t in range(trials):
        seed = rng.getrandbits(64)
        trial_rng = random.Random(seed)
        pk, sk = scheme.keygen(trial_rng)
        challenge = scheme.encrypt(pk, scheme.sample_message(pk, trial_rng), trial_rng)
        oracle = DecryptionOracle(scheme.decrypt, sk)
        oracle.set_challenge(challenge)
        if strategy == "case1":
            query = mutate_ciphertext(challenge, "c2", trial_rng, pk.p)
        else:
            # C1 = s^h, so the challenge randomness weighs h = log_s C1
            weight = None
            if force_weight_match:
                weight = attacks.recover_hamming_weight(pk, scheme.attack_target(challenge)[0])
            query = malleation_case2(challenge, pk, trial_rng, force_weight=weight)
        answer = oracle.query(query)
        if answer is not None:
            findings.append(
                MalleationFinding(
                    trial=t,
                    seed=seed,
                    query=astuple(query),
                    decrypted=answer,
                )
            )
    return ExperimentResult(
        trials=trials,
        wins=len(findings),
        rejections=trials - len(findings),
        findings=tuple(findings),
    )


@dataclass(frozen=True)
class MutationFinding:
    index: int
    kind: str
    keypair_seed: int
    message: int
    mutated: tuple[int, ...]
    decrypted: int


@dataclass(frozen=True)
class FuzzReport:
    mutations: int
    rejections: int
    acceptances: int
    by_kind: tuple[tuple[str, int, int], ...]  # (kind, tried, accepted)
    findings: tuple[MutationFinding, ...]
    findings_truncated: bool


def mutate_ciphertext(ct, kind: str, rng: random.Random, p: int):
    """Replace the named component(s) with fresh random residues (never equal)."""
    if kind not in MUTATION_KINDS:
        raise ParameterError(f"unknown mutation kind {kind!r}")
    parts = {}
    for name in kind.split("+"):
        old = getattr(ct, name)
        while (fresh := rng.randrange(1, p)) == old:
            pass
        parts[name] = fresh
    return replace(ct, **parts)


def mutation_fuzzer(
    mutations: int,
    rng: random.Random,
    *,
    n: int = 16,
    prime_bits: int = 8,
) -> FuzzReport:
    """Round-robin single and pairwise component mutations against fresh challenges.

    FUZZ_KEYPAIRS key pairs are drawn once and rotated to amortize
    generation; each mutation gets a fresh message and challenge.
    Acceptances are findings, recorded (up to MAX_FUZZ_FINDINGS) with the key
    seed and concrete values needed to replay them.
    """
    if mutations < 1:
        raise ParameterError("need at least one mutation")
    scheme = modified_game_scheme(n, prime_bits)
    pool = []
    for _ in range(FUZZ_KEYPAIRS):
        seed = rng.getrandbits(64)
        pool.append((seed, *scheme.keygen(random.Random(seed))))
    accepted = dict.fromkeys(MUTATION_KINDS, 0)
    findings: list[MutationFinding] = []
    for i in range(mutations):
        seed, pk, sk = pool[i % len(pool)]
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        m = scheme.sample_message(pk, rng)
        query = mutate_ciphertext(scheme.encrypt(pk, m, rng), kind, rng, pk.p)
        out = scheme.decrypt(sk, query)
        if out is not None:
            accepted[kind] += 1
            if len(findings) < MAX_FUZZ_FINDINGS:
                findings.append(
                    MutationFinding(
                        index=i,
                        kind=kind,
                        keypair_seed=seed,
                        message=m,
                        mutated=astuple(query),
                        decrypted=out,
                    )
                )
    acceptances = sum(accepted.values())
    # the round robin gives kind j the indices j, j + 6, j + 12, ... below mutations
    stride = len(MUTATION_KINDS)
    return FuzzReport(
        mutations=mutations,
        rejections=mutations - acceptances,
        acceptances=acceptances,
        by_kind=tuple(
            (kind, len(range(j, mutations, stride)), accepted[kind])
            for j, kind in enumerate(MUTATION_KINDS)
        ),
        findings=tuple(findings),
        findings_truncated=acceptances > len(findings),
    )


def run_completeness_trials(
    scheme: GameScheme, trials: int, rng: random.Random
) -> CompletenessReport:
    """Fresh keys and message per trial; encrypt, decrypt, classify the outcome."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    counts = {"unique": 0, "ambiguous": 0, "failed": 0}
    for _ in range(trials):
        pk, sk = scheme.keygen(rng)
        m = scheme.sample_message(pk, rng)
        ct = scheme.encrypt(pk, m, rng)
        counts[scheme.classify_roundtrip(sk, ct, m)] += 1
    return CompletenessReport(
        trials=trials,
        unique=counts["unique"],
        ambiguous=counts["ambiguous"],
        failed=counts["failed"],
    )

