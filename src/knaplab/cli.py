"""Command-line front end: key management, both ciphers, attacks, experiments.

Exit codes: 0 on success, 1 for usage/format/parameter problems, 2 when a
decryption is cryptographically rejected.  Every randomized command accepts
--seed for byte-reproducible output.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import akleylek, attacks, games, keyfile
from .errors import ParameterError
from .numtheory import BitVector
from .schemes import ORIGINAL, SCHEMES, scheme_of

REJECT_TOKEN = "REJECT"

BENCH_HEADER = "n,h,exact,bound,examined,elapsed_ms,candidates"
GAME_HEADER = "scheme,adversary,trials,wins,advantage,rejections"
COMPLETENESS_HEADER = "scheme,game,trials,unique,ambiguous,failed"


def _rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.Random()


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
        pub, sec = SCHEMES[params.scheme].keypair_from_params(
            params.p, params.g, params.x, params.k, params.terms
        )
    elif args.n is None:
        raise ParameterError("-n is required unless --fixed-key is given")
    else:
        pub, sec = _game_scheme(args).keygen(rng)
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
    candidates = scheme_of(sk, ct).decrypt_all(sk, ct, args.limit)
    if not candidates:
        print(REJECT_TOKEN)
        return 2
    for m in candidates:
        print(m)
    return 0


def cmd_attack(args) -> int:
    pk = keyfile.load_key(args.key, "public")
    ct = _read_ciphertext(args)
    if args.strategy == "exhaustive":
        report = attacks.exhaustive_subset_attack(pk, ct)
    else:
        report = attacks.mitm_subset_attack(pk, ct, args.split)
    for m in report.candidates:
        print(m)
    print(BENCH_HEADER)
    print(_bench_row(pk.n, report))
    return 0


def cmd_audit(args) -> int:
    sk = keyfile.load_key(args.key, "secret")
    if scheme_of(sk) is not ORIGINAL:
        raise ParameterError("audit applies to original-scheme secret keys")
    report = akleylek.completeness_audit(sk, exhaustive_limit=args.limit)
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


def _game_scheme(args) -> games.GameScheme:
    """The scheme record whose keygen is bound to the CLI's key sizes."""
    if args.scheme == "original":
        return games.original_game_scheme(
            args.n, args.modulus_bits, args.max_step, enforce_capacity=not args.allow_overflow
        )
    return games.modified_game_scheme(args.n, args.prime_bits)


def cmd_game(args) -> int:
    rng = _rng(args.seed)
    if args.game in ("distinguisher", "random-guess"):
        scheme = _game_scheme(args)
        adversary = (
            games.distinguisher_adversary(scheme)
            if args.game == "distinguisher"
            else games.random_guess_adversary(scheme)
        )
        res = games.run_ind_cca2(scheme, adversary, args.trials, rng)
        print(GAME_HEADER)
        print(_game_row(args.scheme, adversary.name, res))
        return 0
    if args.game in ("malleation-case1", "malleation-case2"):
        if args.scheme != "modified":
            raise ParameterError("malleation games target the modified scheme")
        strategy = "case1" if args.game.endswith("1") else "case2"
        res = games.run_malleation_trials(
            strategy, args.trials, rng, n=args.n, prime_bits=args.prime_bits
        )
        print(GAME_HEADER)
        print(_game_row(args.scheme, args.game, res))
        for f in res.findings:
            print(f"finding,trial={f.trial},seed={f.seed},decrypted={f.decrypted}")
        return 0
    if args.game == "fuzzer":
        if args.scheme != "modified":
            raise ParameterError("the mutation fuzzer targets the modified scheme")
        rep = games.mutation_fuzzer(
            args.mutations, rng, n=args.n, prime_bits=args.prime_bits
        )
        print(GAME_HEADER)
        print(
            f"{args.scheme},mutation-fuzzer,{rep.mutations},{rep.acceptances},"
            f"{abs(rep.acceptances / rep.mutations - 0.5):.6f},{rep.rejections}"
        )
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
    rep = games.run_completeness_trials(_game_scheme(args), args.trials, rng)
    print(COMPLETENESS_HEADER)
    print(
        f"{args.scheme},completeness,{rep.trials},{rep.unique},{rep.ambiguous},{rep.failed}"
    )
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
        if args.strategy == "exhaustive":
            report = attacks.exhaustive_subset_attack(pk, ct)
        else:
            report = attacks.mitm_subset_attack(pk, ct)
        regime = attacks.attack_complexity_profile(args.n, h).regime
        print(_bench_row(args.n, report) + f",{regime}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knaplab",
        description="Knapsack/ElGamal cipher lab: keys, attacks, and security games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate or rebuild a key pair")
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("-n", type=int, default=None, help="number of knapsack positions")
    p.add_argument("--modulus-bits", type=int, default=None)
    p.add_argument("--prime-bits", type=int, default=8)
    p.add_argument("--max-step", type=int, default=10)
    p.add_argument(
        "--allow-overflow",
        action="store_true",
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
    p.add_argument("--limit", type=int, default=akleylek.DEFAULT_EXHAUSTIVE_LIMIT)
    p.set_defaults(fn=cmd_decrypt)

    p = sub.add_parser("attack", help="message recovery from a public key alone")
    p.add_argument("--key", required=True, help="public key file")
    p.add_argument("--ciphertext", default=None, help="read from stdin when omitted")
    p.add_argument("--strategy", choices=("exhaustive", "mitm"), default="exhaustive")
    p.add_argument("--split", type=int, default=None)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("audit", help="census of collisions and modulus overflow")
    p.add_argument("--key", required=True, help="original-scheme secret key file")
    p.add_argument("--limit", type=int, default=akleylek.DEFAULT_EXHAUSTIVE_LIMIT)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("game", help="run a security experiment")
    p.add_argument(
        "--game",
        choices=(
            "distinguisher",
            "random-guess",
            "malleation-case1",
            "malleation-case2",
            "fuzzer",
            "completeness",
        ),
        required=True,
    )
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--mutations", type=int, default=10000)
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--prime-bits", type=int, default=8)
    p.add_argument("--modulus-bits", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    # keys are drawn at keygen's default step and capacity
    p.set_defaults(fn=cmd_game, max_step=10, allow_overflow=False)

    p = sub.add_parser("bench", help="attack cost sweep over Hamming weights")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--h-values", default=None, help="comma-separated weights, default 1..n-1")
    p.add_argument("--strategy", choices=("exhaustive", "mitm"), default="exhaustive")
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
