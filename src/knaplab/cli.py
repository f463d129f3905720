"""Command-line front end: key management, both ciphers, attacks, experiments.

Exit codes: 0 on success, 1 for usage/format/parameter problems, 2 when a
decryption is cryptographically rejected.  Every randomized command accepts
--seed for byte-reproducible output.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import random
import sys

from . import akleylek, attacks, games, keyfile
from .errors import ParameterError
from .numtheory import BitVector
from .schemes import MODIFIED, ORIGINAL, SCHEMES, scheme_of

REJECT_TOKEN = "REJECT"

BENCH_HEADER = "n,h,exact,bound,examined,elapsed_ms,candidates"
GAME_HEADER = "scheme,adversary,trials,wins,advantage,rejections"
COMPLETENESS_HEADER = "scheme,game,trials,unique,ambiguous,failed"

# flags passed by keyword to the one library function that reads them, which owns their default
ROUTED_FLAGS = ("n", "modulus_bits", "prime_bits", "max_step", "allow_overflow", "split", "limit")
STRATEGIES = {
    "exhaustive": attacks.exhaustive_subset_attack,
    "mitm": attacks.mitm_subset_attack,
    "divisor": attacks.divisor_subset_attack,
}
ADVERSARIES = {
    "distinguisher": games.distinguisher_adversary,
    "random-guess": games.random_guess_adversary,
}


def _rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.Random()


def _sized(fn, args, *pos):
    """fn(*pos) with the routed flags given, by keyword; a flag fn does not take is refused."""
    given = {k: v for k in ROUTED_FLAGS if (v := getattr(args, k, None)) is not None}
    params = inspect.signature(fn).parameters
    for name in given:
        if name not in params:
            flag = "-n" if name == "n" else "--" + name.replace("_", "-")
            raise ParameterError(f"{flag} does not apply to {_choice(fn, args)}")
    return fn(*pos, **given)


def _choice(fn, args) -> str:
    """The user's choice that picked fn, as a refusal names it."""
    if getattr(args, "fixed_key", None) is not None:
        return "--fixed-key"
    for flag in ("strategy", "scheme"):
        if (value := getattr(args, flag, None)) is not None:
            return f"--{flag} {value}"
    # decrypt: the key file picked the scheme
    return next(f"{s.name}-scheme keys" for s in SCHEMES.values() if fn is s.decrypt_all)


def _read_ciphertext(args):
    text = args.ciphertext if args.ciphertext is not None else sys.stdin.read()
    return keyfile.ciphertext_from_text(text)


def _bench_row(n: int, report) -> str:
    return (
        f"{n},{report.recovered_h},{attacks.binomial(n, report.recovered_h)},"
        f"{report.predicted_bound:.6g},{report.subsets_examined},"
        f"{report.elapsed * 1000:.3f},{len(report.candidates)}"
    )


def cmd_keygen(args) -> int:
    rng = _rng(args.seed)
    if args.fixed_key is not None:
        params = keyfile.load_key(args.fixed_key, "params")
        if params.scheme != args.scheme:
            raise ParameterError(
                f"params file is for scheme {params.scheme!r}, not {args.scheme!r}"
            )
        build = SCHEMES[params.scheme].keypair_from_params
        pub, sec = _sized(build, args, params.p, params.g, params.x, params.k, params.terms)
    elif args.n is None:
        raise ParameterError("-n is required unless --fixed-key is given")
    else:
        pub, sec = _sized(games.GAME_SCHEMES[args.scheme], args).keygen(rng)
    keyfile.save_key(args.public_out, pub)
    keyfile.save_key(args.secret_out, sec)
    print(f"wrote {args.public_out} and {args.secret_out}")
    return 0


def cmd_encrypt(args) -> int:
    pk = keyfile.load_key(args.key, "public")
    rng = _rng(args.seed)
    scheme = scheme_of(pk)
    ct = scheme.encrypt(pk, scheme.parse_message(args.message), rng)
    print(keyfile.ciphertext_to_text(ct))
    return 0


def cmd_decrypt(args) -> int:
    sk = keyfile.load_key(args.key, "secret")
    ct = _read_ciphertext(args)
    candidates = _sized(scheme_of(sk, ct).decrypt_all, args, sk, ct)
    if not candidates:
        print(REJECT_TOKEN)
        return 2
    for m in candidates:
        print(m)
    return 0


def cmd_attack(args) -> int:
    pk = keyfile.load_key(args.key, "public")
    ct = _read_ciphertext(args)
    report = _sized(STRATEGIES[args.strategy], args, pk, ct)
    for m in report.candidates:
        print(m)
    print(BENCH_HEADER)
    print(_bench_row(pk.n, report))
    return 0


def cmd_audit(args) -> int:
    sk = keyfile.load_key(args.key, "secret")
    if scheme_of(sk) is not ORIGINAL:
        raise ParameterError("audit applies to original-scheme secret keys")
    report = _sized(akleylek.completeness_audit, args, sk)
    for product, members in report.collision_groups:
        names = ",".join(str(m) for m in members)
        print(f"collision product={product} messages={names}")
    for m in report.overflow_messages:
        print(f"overflow message={m}")
    print(f"unique_fraction={report.unique_fraction:.6f}")
    return 0


def _game_row(scheme: str, adversary: str, res: games.ExperimentResult) -> str:
    return (
        f"{scheme},{adversary},{res.trials},{res.wins},"
        f"{res.advantage:.6f},{res.rejections}"
    )


def cmd_game(args) -> int:
    rng = _rng(args.seed)
    unused = "trials" if args.game == "fuzzer" else "mutations"
    if getattr(args, unused) is not None:
        raise ParameterError(f"--{unused} does not apply to the {args.game} game")
    trials = 1000 if args.trials is None else args.trials
    if args.game in ADVERSARIES:
        scheme = _sized(games.GAME_SCHEMES[args.scheme], args)
        adversary = ADVERSARIES[args.game](scheme)
        res = games.run_ind_cca2(scheme, adversary, trials, rng)
        print(GAME_HEADER)
        print(_game_row(args.scheme, adversary.name, res))
        return 0
    if args.game == "completeness":
        scheme = _sized(games.GAME_SCHEMES[args.scheme], args)
        rep = games.run_completeness_trials(scheme, trials, rng)
        print(COMPLETENESS_HEADER)
        print(
            f"{args.scheme},completeness,{rep.trials},{rep.unique},{rep.ambiguous},{rep.failed}"
        )
        return 0
    # the forgery games tamper with the modified ciphertext (C1', C1'', C2)
    if args.scheme != MODIFIED.name:
        raise ParameterError(f"the {args.game} game targets the modified scheme")
    if args.game != "fuzzer":
        strategy = args.game.removeprefix("malleation-")
        res = _sized(games.run_malleation_trials, args, strategy, trials, rng)
        print(GAME_HEADER)
        print(_game_row(args.scheme, args.game, res))
        for f in res.findings:
            print(f"finding,trial={f.trial},seed={f.seed},decrypted={f.decrypted}")
        return 0
    mutations = 10000 if args.mutations is None else args.mutations
    rep = _sized(games.mutation_fuzzer, args, mutations, rng)
    res = games.ExperimentResult(rep.mutations, rep.acceptances, rep.rejections)
    print(GAME_HEADER)
    print(_game_row(args.scheme, "mutation-fuzzer", res))
    for kind, tried, accepted in rep.by_kind:
        print(f"kind,{kind},{tried},{accepted}")
    for f in rep.findings:
        print(
            f"finding,index={f.index},kind={f.kind},keypair_seed={f.keypair_seed},"
            f"decrypted={f.decrypted}"
        )
    if rep.findings_truncated:
        print("finding,truncated=true")
    return 0


def _bench_weights(n: int, h_values: str | None) -> list[int]:
    """The swept weights, all checked before any key is made or row printed."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if not h_values:
        return list(range(1, n))
    weights = []
    for tok in h_values.split(","):
        try:
            h = int(tok)
        except ValueError:
            raise ParameterError(f"--h-values token {tok!r} is not an integer") from None
        if not 1 <= h <= n:
            raise ParameterError(f"h={h} out of range for n={n}")
        weights.append(h)
    return weights


def cmd_bench(args) -> int:
    rng = _rng(args.seed)
    h_values = _bench_weights(args.n, args.h_values)
    scheme = games.original_game_scheme(args.n)
    print(BENCH_HEADER + ",regime")
    for h in h_values:
        pk, _ = scheme.keygen(rng)
        m = BitVector.from_indices(args.n, rng.sample(range(args.n), h))
        ct = scheme.encrypt(pk, m, rng)
        report = STRATEGIES[args.strategy](pk, ct)
        regime = attacks.attack_complexity_profile(args.n, h).regime
        print(_bench_row(args.n, report) + f",{regime}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 means a decryption was rejected."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The knaplab parser, built once per process and shared by every ``main`` call.

    ``parse_args`` keeps no state in the parser, so a shared one is safe.  The
    ``choices`` from ``SCHEMES``, ``STRATEGIES`` and ``ADVERSARIES`` are read
    once, at the first build.
    """
    parser = _Parser(
        prog="knaplab",
        description="Knapsack/ElGamal cipher lab: keys, attacks, and security games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate or rebuild a key pair")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("-n", type=int, default=None, help="number of knapsack positions")
    p.add_argument("--modulus-bits", type=int, default=None)
    p.add_argument("--prime-bits", type=int, default=None)
    p.add_argument("--max-step", type=int, default=None)
    p.add_argument(
        "--allow-overflow",
        action="store_true",
        default=None,
        help="skip the modulus-dominates-product check (original scheme)",
    )
    p.add_argument("--fixed-key", default=None, help="role=params file with p,g,x,k and terms")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--public-out", required=True)
    p.add_argument("--secret-out", required=True)
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt under a public key")
    p.add_argument("--key", required=True, help="public key file")
    p.add_argument(
        "--message",
        required=True,
        help="bit string (original) or decimal/0x-hex integer (modified)",
    )
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt with a secret key")
    p.add_argument("--key", required=True, help="secret key file")
    p.add_argument("--ciphertext", default=None, help="read from stdin when omitted")
    p.add_argument("--limit", type=int, default=None, help="original scheme only")
    p.set_defaults(fn=cmd_decrypt)

    p = sub.add_parser("attack", help="message recovery from a public key alone")
    p.add_argument("--key", required=True, help="public key file")
    p.add_argument("--ciphertext", default=None, help="read from stdin when omitted")
    p.add_argument("--strategy", choices=tuple(STRATEGIES), default="exhaustive")
    p.add_argument("--split", type=int, default=None, help="mitm only")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("audit", help="census of collisions and modulus overflow")
    p.add_argument("--key", required=True, help="original-scheme secret key file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("game", help="run a security experiment")
    p.add_argument(
        "--game",
        choices=(
            *ADVERSARIES,
            "malleation-case1",
            "malleation-case2",
            "fuzzer",
            "completeness",
        ),
        required=True,
    )
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--trials", type=int, default=None, help="default 1000; not for fuzzer")
    p.add_argument("--mutations", type=int, default=None, help="fuzzer only; default 10000")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--prime-bits", type=int, default=None)
    p.add_argument("--modulus-bits", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("bench", help="attack cost sweep over Hamming weights")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--h-values", default=None, help="comma-separated weights, default 1..n-1")
    p.add_argument("--strategy", choices=tuple(STRATEGIES), default="exhaustive")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
