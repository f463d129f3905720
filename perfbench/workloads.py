"""The three closed-loop workloads: one client, one process, one thread.

Each workload builds its inputs in ``setup`` from the run seed and the
set-up repetition ``rep`` (the operations use repetition 0), and runs one
operation per ``op`` call.  Operation ``i`` draws everything it needs from
``op_rng(workload, seed, i)``, which also seeds the module-global ``random``
that ``is_probable_prime`` falls back on, so an operation does the same work
whatever ran before it.  ``op`` returns "ok", "fail" (a guarantee of the
scheme was violated) or "excused" (a documented C2-only acceptance).
The mix of operation kinds repeats every ``cycle`` operations, and the
traced run, which runs whole cycles, is sized by ``nominal_ops_per_s``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

OK, FAIL, EXCUSED = "ok", "fail", "excused"


def op_rng(workload: str, seed: int, i) -> random.Random:
    key = f"{workload}:{seed}:{i}"
    random.seed(key + ":global")
    return random.Random(key)


class CliRoundtrip:
    """keygen -> encrypt -> decrypt through knaplab.cli.main, in-process."""

    name = "cli-roundtrip"
    expected_layers = ("cli", "keyfile", "modified", "numtheory")
    cycle = 1
    nominal_ops_per_s = 12
    argv_keygen = ("keygen", "--scheme", "modified", "-n", "16", "--prime-bits", "16")
    # 16 primes of 16 bits multiply to at least 2^240, so p > 2^241 and
    # every message below 2^240 is in range.
    message_bits = 240

    def setup(self, mods, seed: int, workdir: str, rep: int = 0):
        op_rng(self.name, seed, f"setup{rep}")
        return {
            "public": os.path.join(workdir, "key.pub"),
            "secret": os.path.join(workdir, "key.sec"),
        }

    @staticmethod
    def _cli(mods, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = mods.cli.main(list(argv))
        return rc, out.getvalue()

    def op(self, mods, state, seed: int, i: int) -> str:
        rng = op_rng(self.name, seed, i)
        pub, sec = state["public"], state["secret"]
        m = rng.randrange(1, 1 << self.message_bits)
        keygen = (*self.argv_keygen, "--seed", str(rng.getrandbits(32)))
        rc1, _ = self._cli(mods, (*keygen, "--public-out", pub, "--secret-out", sec))
        encrypt = ("encrypt", "--key", pub, "--message", str(m))
        rc2, ct = self._cli(mods, (*encrypt, "--seed", str(rng.getrandbits(32))))
        rc3, out = self._cli(mods, ("decrypt", "--key", sec, "--ciphertext", ct.strip()))
        return OK if (rc1, rc2, rc3) == (0, 0, 0) and out.strip() == str(m) else FAIL


class OracleFuzz:
    """One DecryptionOracle query per operation against a pooled modified key."""

    name = "oracle-fuzz"
    expected_layers = ("games", "modified", "numtheory")
    pool_size = 8
    n, prime_bits = 16, 16
    nominal_ops_per_s = 2500

    @property
    def cycle(self) -> int:
        return 7 * self.pool_size  # honest + six mutation kinds, over every key

    def setup(self, mods, seed: int, workdir: str, rep: int = 0):
        rng = op_rng(self.name, seed, f"setup{rep}")
        pool = [mods.modified.keygen(self.n, self.prime_bits, rng) for _ in range(self.pool_size)]
        return {"pool": pool, "kinds": (None, *mods.games.MUTATION_KINDS)}

    def op(self, mods, state, seed: int, i: int) -> str:
        rng = op_rng(self.name, seed, i)
        kinds = state["kinds"]
        kind = kinds[i % len(kinds)]
        pk, sk = state["pool"][(i // len(kinds)) % len(state["pool"])]
        modified = mods.modified
        m = rng.randrange(1, pk.max_message + 1)
        challenge = modified.encrypt(pk, m, rng)

        def decrypt(sk_, ct_):
            out = mods.modified.decrypt(sk_, ct_)
            return out.message if out.accepted else None

        oracle = mods.games.DecryptionOracle(decrypt, sk)
        oracle.set_challenge(challenge)
        if kind is None:
            query = challenge
            while query == challenge:  # a repeat of r would be refused as the challenge
                query = modified.encrypt(pk, m, rng)
        else:
            query = mods.games.mutate_ciphertext(challenge, kind, rng, pk.p)
        answer = oracle.query(query)
        if kind is None:
            return OK if answer == m else FAIL
        if "c1" in kind:
            return OK if answer is None else FAIL
        # C2-only substitution: the README documents that it can be accepted.
        return OK if answer is None else EXCUSED


class AttackSweep:
    """Rotate four subset-product solvers over seeded targets of weight h in a band.

    Every (kind, h, key) combination recurs once per ``cycle`` operations,
    and each recurrence gets a fresh message, so a run averages over many
    targets rather than timing a few of them again and again.
    """

    name = "attack-sweep"
    expected_layers = ("attacks", "akleylek", "modified", "numtheory")
    band = (3, 4, 5, 6, 7, 8)
    keys_per_kind = 3
    targets_per_key_weight = 8
    n_exhaustive, n_mitm, n_reduced, reduced_prime_bits = 20, 26, 24, 12
    nominal_ops_per_s = 18

    @property
    def cycle(self) -> int:
        return 4 * len(self.band) * self.keys_per_kind

    def setup(self, mods, seed: int, workdir: str, rep: int = 0):
        akleylek, modified, games = mods.akleylek, mods.modified, mods.games
        BitVector = mods.numtheory.BitVector
        rng = op_rng(self.name, seed, f"setup{rep}")
        n20, n26, n24 = self.n_exhaustive, self.n_mitm, self.n_reduced
        keys = [
            (
                akleylek.keygen(n20, games.suggested_modulus_bits(n20), rng),
                akleylek.keygen(n26, games.suggested_modulus_bits(n26), rng)[0],
                modified.keygen(n24, self.reduced_prime_bits, rng)[0],
            )
            for _ in range(self.keys_per_kind)
        ]

        def weight(n, h):
            return BitVector.from_indices(n, rng.sample(range(n), h))

        slots = []
        for j in range(len(self.band) * self.keys_per_kind * self.targets_per_key_weight):
            h = self.band[j % len(self.band)]
            (pk20, sk20), pk26, pk24 = keys[(j // len(self.band)) % self.keys_per_kind]
            m20, m26, r24 = weight(n20, h), weight(n26, h), weight(n24, h)
            m24 = rng.randrange(1, pk24.max_message + 1)
            slots.append(
                {
                    "original": (pk20, sk20, akleylek.encrypt(pk20, m20), m20),
                    "mitm": (pk26, akleylek.encrypt(pk26, m26), m26),
                    "reduced": (pk24, modified.encrypt_with_randomness(pk24, m24, r24), r24),
                }
            )
        return {"slots": slots}

    def op(self, mods, state, seed: int, i: int) -> str:
        op_rng(self.name, seed, i)
        slot = state["slots"][(i // 4) % len(state["slots"])]
        kind = i % 4
        if kind == 0:
            pk, _, ct, m = slot["original"]
            found = mods.attacks.exhaustive_subset_attack(pk, ct).candidates
        elif kind == 1:
            _, sk, ct, m = slot["original"]
            found = mods.akleylek.decrypt_all(sk, ct)
        elif kind == 2:
            pk, ct, m = slot["mitm"]
            found = mods.attacks.mitm_subset_attack(pk, ct).candidates
        else:
            pk, ct, m = slot["reduced"]  # m is the randomness r behind C1''
            found = mods.attacks.mitm_subset_attack(pk, ct).candidates
        return OK if m in found else FAIL


WORKLOADS = {w.name: w for w in (CliRoundtrip(), OracleFuzz(), AttackSweep())}
