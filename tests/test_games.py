"""Game harness: CCA2 experiments, oracle hygiene, malleation, completeness.

Malleation tests assert the measured truth: substituted-C2 queries are
accepted (they are honest encryptions of the root message under the same
randomness), while anything that disturbs C1 is rejected by the first
consistency check.  The acceptance suite separately records that the
stronger rejection targets cannot be met.
"""

import contextlib
import hashlib
import io
import math
import random
from collections import Counter
from itertools import count

import pytest

from knaplab import akleylek, cli, games, modified
from knaplab.errors import ParameterError
from knaplab.numtheory import BitVector


def test_experiment_result_advantage_formula():
    assert games.ExperimentResult(trials=1000, wins=1000).advantage == 0.5
    assert games.ExperimentResult(trials=1000, wins=500).advantage == 0.0
    assert games.ExperimentResult(trials=10, wins=3).advantage == pytest.approx(0.2)


def test_distinguisher_always_wins_against_original_scheme():
    scheme = games.original_game_scheme(n=8)
    res = games.run_ind_cca2(
        scheme, games.distinguisher_adversary(scheme), 200, random.Random(1)
    )
    assert res.wins == res.trials == 200
    assert res.advantage == 0.5


def test_distinguisher_does_no_better_than_chance_against_modified():
    scheme = games.modified_game_scheme(n=10, prime_bits=8)
    trials = 400
    res = games.run_ind_cca2(
        scheme, games.distinguisher_adversary(scheme), trials, random.Random(2)
    )
    sigma = math.sqrt(trials * 0.25) / trials
    assert res.advantage <= 3 * sigma


@pytest.mark.parametrize("factory", ["original", "modified"])
def test_random_guess_adversary_sits_at_chance(factory):
    if factory == "original":
        scheme = games.original_game_scheme(n=8)
    else:
        scheme = games.modified_game_scheme(n=10, prime_bits=8)
    trials = 400
    res = games.run_ind_cca2(
        scheme, games.random_guess_adversary(scheme), trials, random.Random(3)
    )
    sigma = math.sqrt(trials * 0.25) / trials
    assert res.advantage <= 3 * sigma


def test_oracle_refuses_the_challenge_and_decrypts_the_rest():
    pub, sec = modified.keygen(10, 8, random.Random(4))
    oracle = games.DecryptionOracle(
        lambda sk, ct: (lambda o: o.message if o.accepted else None)(
            modified.decrypt(sk, ct)
        ),
        sec,
    )
    rng = random.Random(5)
    challenge = modified.encrypt(pub, 123, rng)
    other = modified.encrypt(pub, 321, rng)
    oracle.set_challenge(challenge)
    assert oracle.query(challenge) is None
    assert oracle.refused == 1
    assert oracle.query(other) == 321
    assert oracle.queries == 2
    assert oracle.rejections == 0


def test_oracle_counts_rejections():
    pub, sec = modified.keygen(10, 8, random.Random(6))
    oracle = games.DecryptionOracle(
        lambda sk, ct: (lambda o: o.message if o.accepted else None)(
            modified.decrypt(sk, ct)
        ),
        sec,
    )
    ct = modified.encrypt(pub, 5, random.Random(7))
    mangled = modified.ModifiedCiphertext(1, 1, ct.c2)
    assert oracle.query(mangled) is None
    assert oracle.rejections == 1


def test_querying_adversary_exercises_the_oracle_lawfully():
    scheme = games.modified_game_scheme(n=10, prime_bits=8)

    def choose(pk, oracle, rng):
        m0, m1 = scheme.sample_message_pair(pk, rng)
        # phase-1 oracle access: decrypt something it has every right to see
        probe = scheme.encrypt(pk, m0, rng)
        assert oracle.query(probe) == m0
        return m0, m1, (m0, m1)

    def guess(pk, challenge, state, oracle, rng):
        assert oracle.query(challenge) is None  # refusal, not decryption
        return rng.getrandbits(1)

    adversary = games.Adversary(name="prober", choose=choose, guess=guess)
    res = games.run_ind_cca2(scheme, adversary, 20, random.Random(8))
    assert res.trials == 20


def test_malleation_case1_changes_only_c2():
    pub, _ = modified.keygen(10, 8, random.Random(9))
    rng = random.Random(10)
    challenge = modified.encrypt(pub, 77, rng)
    for _ in range(50):
        query = games.mutate_ciphertext(challenge, "c2", rng, pub.p)
        assert (query.c1_prime, query.c1_dprime) == (challenge.c1_prime, challenge.c1_dprime)
        assert query.c2 != challenge.c2


def test_malleation_case2_swaps_in_fresh_honest_c1():
    pub, sec = modified.keygen(10, 8, random.Random(11))
    rng = random.Random(12)
    r = BitVector.from_int(rng.randrange(2, 1 << 10), 10)
    challenge = modified.encrypt_with_randomness(pub, 77, r)
    for _ in range(20):
        query = games.malleation_case2(challenge, pub, rng, force_weight=r.weight)
        assert query.c2 == challenge.c2
        assert (query.c1_prime, query.c1_dprime) != (challenge.c1_prime, challenge.c1_dprime)
        r_hat, exact = modified.recover_randomness(sec, query.c1_prime, query.c1_dprime)
        assert exact and r_hat.weight == r.weight and r_hat != r


def test_malleation_trials_measure_acceptance_with_replayable_findings():
    # Substituted C2 rides through both checks; every trial is an accepted
    # forgery and each finding replays bit-exactly from its recorded seed.
    n, prime_bits = 12, 8
    res = games.run_malleation_trials("case1", 25, random.Random(13), n=n, prime_bits=prime_bits)
    assert res.trials == 25
    assert res.wins == 25 and res.rejections == 0
    assert len(res.findings) == 25
    for finding in res.findings[:5]:
        trial_rng = random.Random(finding.seed)
        pk, sk = modified.keygen(n, prime_bits, trial_rng)
        m = trial_rng.randrange(1, pk.max_message + 1)
        r = BitVector.from_int(trial_rng.randrange(2, 1 << n), n)
        challenge = modified.encrypt_with_randomness(pk, m, r)
        query = games.mutate_ciphertext(challenge, "c2", trial_rng, pk.p)
        assert (query.c1_prime, query.c1_dprime, query.c2) == finding.query
        out = modified.decrypt(sk, query)
        assert out.accepted and out.message == finding.decrypted


def test_malleation_case2_trials_also_accepted():
    res = games.run_malleation_trials(
        "case2", 25, random.Random(14), n=12, prime_bits=8, force_weight_match=True
    )
    assert res.wins == 25 and res.rejections == 0


def test_fuzzer_rejects_everything_that_touches_c1():
    rep = games.mutation_fuzzer(600, random.Random(15), n=12, prime_bits=8)
    assert rep.mutations == 600
    assert rep.acceptances + rep.rejections == 600
    by_kind = dict((kind, (tried, accepted)) for kind, tried, accepted in rep.by_kind)
    for kind in ("c1_prime", "c1_dprime", "c1_prime+c1_dprime", "c1_prime+c2", "c1_dprime+c2"):
        tried, accepted = by_kind[kind]
        assert tried == 100 and accepted == 0, kind
    tried, accepted = by_kind["c2"]
    assert tried == 100
    assert accepted == 100  # plain C2 substitution is a valid re-encryption
    assert all(f.kind == "c2" for f in rep.findings)


@pytest.mark.parametrize("mutations", [1, 5, 7, 61, 163])
def test_fuzzer_counts_match_a_recount_of_its_findings(mutations):
    rep = games.mutation_fuzzer(mutations, random.Random(mutations), n=8, prime_bits=7)
    kinds = games.MUTATION_KINDS
    tried = Counter(kinds[i % len(kinds)] for i in range(mutations))
    assert [(kind, t) for kind, t, _ in rep.by_kind] == [(kind, tried[kind]) for kind in kinds]
    accepted = {kind: a for kind, _, a in rep.by_kind}
    assert rep.acceptances == sum(accepted.values())
    assert rep.rejections == mutations - rep.acceptances
    assert len(rep.findings) == min(rep.acceptances, games.MAX_FUZZ_FINDINGS)
    assert rep.findings_truncated == (rep.acceptances > games.MAX_FUZZ_FINDINGS)
    assert [f.kind for f in rep.findings] == [kinds[f.index % len(kinds)] for f in rep.findings]
    if not rep.findings_truncated:
        assert accepted == {kind: Counter(f.kind for f in rep.findings)[kind] for kind in kinds}
    if mutations == 163:  # 27 C2 substitutions, all accepted: more than the log keeps
        assert rep.findings_truncated and accepted["c2"] == 27


@pytest.mark.parametrize("max_step", [0, -2])
def test_a_max_step_below_one_is_refused_before_the_modulus_is_sized(max_step):
    with pytest.raises(ParameterError, match="max_step"):
        games.suggested_modulus_bits(8, max_step)
    with pytest.raises(ParameterError, match="max_step"):
        games.original_game_scheme(8, max_step=max_step)


def test_fuzzer_findings_replay_from_keypair_seed():
    rep = games.mutation_fuzzer(60, random.Random(16), n=10, prime_bits=8)
    for finding in rep.findings[:3]:
        _, sk = modified.keygen(10, 8, random.Random(finding.keypair_seed))
        out = modified.decrypt(sk, modified.ModifiedCiphertext(*finding.mutated))
        assert out.accepted and out.message == finding.decrypted


def test_completeness_trials_modified_scheme_all_unique():
    scheme = games.modified_game_scheme(n=10, prime_bits=8)
    rep = games.run_completeness_trials(scheme, 100, random.Random(17))
    assert (rep.unique, rep.ambiguous, rep.failed) == (100, 0, 0)


def test_completeness_trials_original_scheme_never_loses_the_message():
    scheme = games.original_game_scheme(n=8)
    rep = games.run_completeness_trials(scheme, 60, random.Random(18))
    assert rep.unique + rep.ambiguous + rep.failed == 60
    assert rep.failed == 0  # capacity-enforced keys cannot overflow


def nonzero_census(sk):
    """(unique, ambiguous, failed) over the nonzero messages, from the audit.

    The zero message always decodes uniquely, so it leaves the unique count;
    a message fails exactly when its subset product overflows p.
    """
    audit = akleylek.completeness_audit(sk)
    total = 1 << sk.n
    unique = round(audit.unique_fraction * total) - 1
    failed = len(audit.overflow_messages)
    return unique, total - 1 - unique - failed, failed


def test_completeness_census_of_toy_key_matches_direct_product_census(toy_keypair):
    _, sec = toy_keypair
    # independent census over raw subset products
    groups: dict[tuple[int, int], int] = {}
    products = {}
    for value in range(1, 32):
        m = BitVector.from_int(value, 5)
        product = math.prod(t for t, b in zip(sec.a.terms, m) if b)
        products[value] = product
        key = (m.weight, product)
        groups[key] = groups.get(key, 0) + 1
    unique = ambiguous = failed = 0
    for value in range(1, 32):
        m = BitVector.from_int(value, 5)
        if products[value] >= sec.p:
            failed += 1
        elif groups[(m.weight, products[value])] == 1:
            unique += 1
        else:
            ambiguous += 1
    assert nonzero_census(sec) == (unique, ambiguous, failed)
    assert ambiguous >= 1 and failed >= 1


def test_completeness_trials_original_with_coprime_terms_all_unique():
    _, sec = akleylek.keypair_from_params(
        p=1423127, g=5, x=1234, k=987, a_terms=(3, 5, 16, 49, 121)
    )
    assert nonzero_census(sec) == (31, 0, 0)


def test_run_malleation_trials_validates_strategy():
    with pytest.raises(ParameterError):
        games.run_malleation_trials("case3", 5, random.Random(0))


@pytest.mark.parametrize("trials", [0, -3])
def test_run_malleation_trials_needs_at_least_one_trial(trials):
    for strategy in ("case1", "case2"):
        with pytest.raises(ParameterError, match="at least one trial"):
            games.run_malleation_trials(strategy, trials, random.Random(0), n=8, prime_bits=7)


SMALL_MODIFIED = ("-n", "8", "--prime-bits", "7")
FORGERY_GAME_RUNS = [
    *(
        ("--game", game, "--trials", "12", *SMALL_MODIFIED, "--seed", str(seed))
        for game in ("malleation-case1", "malleation-case2")
        for seed in (0, 1, 2)
    ),
    # 163 mutations log more accepted C2 substitutions than MAX_FUZZ_FINDINGS keeps
    *(("--game", "fuzzer", "--mutations", "163", *SMALL_MODIFIED, "--seed", str(seed))
      for seed in (0, 1, 2)),
    ("--game", "malleation-case2", "--trials", "4", "--seed", "9"),
    ("--game", "fuzzer", "--mutations", "60", "--seed", "9"),
]


def test_forgery_games_seeded_output_is_pinned():
    # Every seeded finding, count and truncation line of the forgery games,
    # through the CLI and the force_weight_match library path, hashed.
    digest = hashlib.sha256()
    truncated = 0
    for argv in FORGERY_GAME_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["game", "--scheme", "modified", *argv]) == 0
        truncated += "finding,truncated=true" in out.getvalue()
        digest.update(out.getvalue().encode())
    for sizes in ({"n": 8, "prime_bits": 7}, {}):
        res = games.run_malleation_trials(
            "case2", 6, random.Random(3), force_weight_match=True, **sizes
        )
        digest.update(repr(res).encode())
    assert truncated == 3
    assert digest.hexdigest() == (
        "25b6d3f2251bcf40575c7bf7961a124dc085f2ca1ed0a9951bebe5dd08d6c357"
    )


def test_mutate_ciphertext_refuses_an_unknown_kind():
    pub, _ = modified.keygen(10, 8, random.Random(9))
    challenge = modified.encrypt(pub, 77, random.Random(10))
    with pytest.raises(ParameterError, match="unknown mutation kind"):
        games.mutate_ciphertext(challenge, "c3", random.Random(0), pub.p)


@pytest.mark.parametrize("weight", [0, -1, 11])
def test_malleation_case2_refuses_a_weight_outside_one_to_n(weight):
    pub, _ = modified.keygen(10, 8, random.Random(11))
    challenge = modified.encrypt(pub, 77, random.Random(12))
    with pytest.raises(ParameterError, match="force_weight out of range"):
        games.malleation_case2(challenge, pub, random.Random(0), force_weight=weight)


def test_malleation_case2_redraws_the_integer_one_at_weight_one():
    n = 10
    pub, sec = modified.keygen(n, 8, random.Random(11))
    challenge = modified.encrypt_with_randomness(pub, 77, BitVector.from_int(0b11, n))

    def draws(seed):
        rng = random.Random(seed)
        return rng.sample(range(n), 1), rng.sample(range(n), 1)

    # the first weight-1 draw sets the last bit, r = 1, which no encryptor uses
    seed = next(s for s in count() if draws(s)[0] == [n - 1] != draws(s)[1])
    query = games.malleation_case2(challenge, pub, random.Random(seed), force_weight=1)
    r_hat, exact = modified.recover_randomness(sec, query.c1_prime, query.c1_dprime)
    assert exact and r_hat == BitVector.from_indices(n, draws(seed)[1])
    assert query.c2 == challenge.c2
