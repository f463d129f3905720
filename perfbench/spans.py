"""Span recording for the traced run, from the benchmark's side of each call.

The tracer rebinds public names on the imported knaplab module objects, at
the name each caller looks up: a module that did ``from .numtheory import
is_probable_prime`` holds its own reference, so that reference is wrapped
too.  Nothing under ``src/`` changes.  Spans stay in memory until the run
ends and are reduced to per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
from collections import Counter
from time import perf_counter_ns

LAYERS = ("numtheory", "akleylek", "modified", "attacks", "games", "keyfile", "cli")
ROOT = "bench.op"
REJECT_REASONS = ("randomness-inconsistent", "message-inconsistent", "malformed")
MR_FULL_ROUNDS = 40
MR_CERTIFY_FLOOR = 10**6  # below this is_probable_prime is exact trial division


class CoverageError(RuntimeError):
    """A name the tracer must wrap is missing, or an expected layer stayed silent."""


def _mr_tag(name, args, kwargs, result):
    """Tag each Miller-Rabin call as a screen, a certification or a small exact check."""
    n = args[0] if args else kwargs["n"]
    rounds = args[1] if len(args) > 1 else kwargs.get("rounds", MR_FULL_ROUNDS)
    if rounds < MR_FULL_ROUNDS:
        kind = "screen"
    elif n >= MR_CERTIFY_FLOOR:
        kind = "certify"
    else:
        kind = "small"
    return name, (kind, bool(result))


def _decrypt_tag(name, args, kwargs, result):
    return name, "accept" if result.accepted else result.reason.value


def _candidates_tag(name, args, kwargs, result):
    return name, len(result)


def _exhaustive_tag(name, args, kwargs, result):
    pk = args[0] if args else kwargs["pk"]
    return name, (result.subsets_examined, math.comb(pk.n, result.recovered_h))


def _mitm_tag(name, args, kwargs, result):
    pk = args[0] if args else kwargs["pk"]
    scheme = "modified" if type(pk).__name__.startswith("Modified") else "original"
    return f"{name}.{scheme}", result.subsets_examined


def _key_role_tag(name, args, kwargs, result):
    kind = type(result).__name__
    role = "public" if "Public" in kind else "secret" if "Secret" in kind else "params"
    return f"{name}.{role}", None


def _subcommand_tag(name, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return f"{name}.{argv[0]}", result


# (owner, attribute, span name, tagger).  The owner is a module name or
# module.Class; a tagger renames the span or tags it from the call's result.
# Every binding a caller can reach is listed, so modules that imported a
# numtheory function by name are wrapped at their own name.
TARGETS = (
    ("numtheory", "is_probable_prime", "numtheory.is_probable_prime", _mr_tag),
    ("modified", "is_probable_prime", "numtheory.is_probable_prime", _mr_tag),
    ("numtheory", "gen_safe_prime", "numtheory.gen_safe_prime", None),
    ("modified", "gen_safe_prime", "numtheory.gen_safe_prime", None),
    ("akleylek", "gen_safe_prime", "numtheory.gen_safe_prime", None),
    ("numtheory", "gen_prime_sequence", "numtheory.gen_prime_sequence", None),
    ("modified", "gen_prime_sequence", "numtheory.gen_prime_sequence", None),
    ("modified", "keygen", "modified.keygen", None),
    ("modified", "encrypt", "modified.encrypt", None),
    ("modified", "decrypt", "modified.decrypt", _decrypt_tag),
    ("akleylek", "keygen", "akleylek.keygen", None),
    ("akleylek", "encrypt", "akleylek.encrypt", None),
    ("akleylek", "decrypt_all", "akleylek.decrypt_all", _candidates_tag),
    ("attacks", "exhaustive_subset_attack", "attacks.exhaustive_subset_attack", _exhaustive_tag),
    ("attacks", "mitm_subset_attack", "attacks.mitm_subset_attack", _mitm_tag),
    ("games.DecryptionOracle", "query", "games.DecryptionOracle.query", None),
    ("games", "mutate_ciphertext", "games.mutate_ciphertext", None),
    ("keyfile", "parse_key", "keyfile.parse_key", _key_role_tag),
    ("keyfile", "serialize_key", "keyfile.serialize_key", None),
    ("keyfile", "ciphertext_to_text", "keyfile.ciphertext_text", None),
    ("keyfile", "ciphertext_from_text", "keyfile.ciphertext_text", None),
    ("cli", "main", "cli", _subcommand_tag),
)


def _owner(mods, path: str):
    module, _, cls = path.partition(".")
    obj = getattr(mods, module)
    if cls:
        if not hasattr(obj, cls):
            raise CoverageError(f"knaplab.{module} has no {cls}")
        obj = getattr(obj, cls)
    return obj


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, op, tag].

    ``op`` is the operation id the benchmark sets before each operation;
    spans recorded during set-up carry None.
    """

    def __init__(self, mods):
        """Look up every target first; raises CoverageError if one no longer exists."""
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._bindings = []
        for owner_path, attr, name, describe in TARGETS:
            owner = _owner(mods, owner_path)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise CoverageError(f"knaplab.{owner_path}.{attr} no longer exists")
            self._bindings.append((owner, attr, original, self.wrap(original, name, describe)))
        params = inspect.signature(mods.numtheory.is_probable_prime).parameters
        if list(params)[:2] != ["n", "rounds"] or params["rounds"].default != MR_FULL_ROUNDS:
            raise CoverageError("is_probable_prime(n, rounds=40, ...) changed; MR tags would lie")

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def wrap(self, fn, name, describe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if describe is not None:
                span[0], span[5] = describe(name, args, kwargs, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def op_signatures(spans) -> dict[int, list[tuple]]:
    """Per operation, the ordered (name, tag) of each span: the counters' raw input."""
    out: dict[int, list[tuple]] = {}
    for name, _, _, _, op, tag in spans:
        if op is not None:
            out.setdefault(op, []).append((name, tag))
    return out


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(spans, ops: int) -> tuple[dict[str, float], dict[str, int]]:
    """Reduce spans to per-layer metrics.

    ``*_per_op`` metrics count only spans inside operations and divide by
    ``ops``; ``*_per_call`` metrics and ratios use every call, set-up
    included, because some layers (akleylek keygen) work only in set-up.
    Self time is a span's duration minus the time its child spans cover.
    Also returns the call count of each layer, set-up included.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    op_time = Counter()  # inclusive ns per span name, inside operations
    op_self = Counter()  # self ns per layer, inside operations
    calls = Counter()  # calls per span name, set-up included
    call_time = Counter()  # inclusive ns per span name, set-up included
    layer_calls = Counter()
    tags: dict[str, list] = {}
    op_tags: dict[str, list] = {}
    decrypt_ns = {"accept": [], "reject": []}
    certify_in_parse = 0
    for i, (name, start, end, parent, op, tag) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        calls[name] += 1
        call_time[name] += dur
        layer_calls[layer] += 1
        if op is not None:
            op_time[name] += dur
            op_self[layer] += dur - child[i]
        if tag is None:  # untagged target, or the call raised
            continue
        tags.setdefault(name, []).append(tag)
        if op is None:
            continue
        op_tags.setdefault(name, []).append(tag)
        if name == "modified.decrypt":
            decrypt_ns["accept" if tag == "accept" else "reject"].append(dur)
        if (
            name == "numtheory.is_probable_prime"
            and tag[0] == "certify"
            and parent is not None
            and spans[parent][0].startswith("keyfile.parse_key")
        ):
            certify_in_parse += 1

    def per_op_ms(name):
        return _ms(op_time[name] / ops)

    def per_call_ms(name):
        return _ms(call_time[name] / calls[name]) if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def median_ms(values):
        return _ms(statistics.median(values)) if values else 0.0

    mr_op = Counter(kind for kind, _ in op_tags.get("numtheory.is_probable_prime", ()))
    mr_all = tags.get("numtheory.is_probable_prime", ())
    screens = [passed for kind, passed in mr_all if kind == "screen"]
    decrypts = op_tags.get("modified.decrypt", ())
    exhaustive = tags.get("attacks.exhaustive_subset_attack", ())
    mitm = tags.get("attacks.mitm_subset_attack.original", []) + tags.get(
        "attacks.mitm_subset_attack.modified", []
    )
    candidates = tags.get("akleylek.decrypt_all", ())

    m = {
        "numtheory.gen_safe_prime.ms_per_op": per_op_ms("numtheory.gen_safe_prime"),
        "numtheory.gen_prime_sequence.ms_per_op": per_op_ms("numtheory.gen_prime_sequence"),
        "numtheory.is_probable_prime.ms_per_op": per_op_ms("numtheory.is_probable_prime"),
        "numtheory.mr_screen.calls_per_op": mr_op["screen"] / ops,
        "numtheory.mr_screen.pass_ratio": ratio(sum(screens), len(screens)),
        "numtheory.mr_certify.calls_per_op": mr_op["certify"] / ops,
        "modified.keygen.ms_per_op": per_op_ms("modified.keygen"),
        "modified.encrypt.ms_per_op": per_op_ms("modified.encrypt"),
        "modified.decrypt.ms_per_op": per_op_ms("modified.decrypt"),
        "modified.decrypt.reject_ms_p50": median_ms(decrypt_ns["reject"]),
        "modified.decrypt.accept_ms_p50": median_ms(decrypt_ns["accept"]),
        "akleylek.keygen.ms_per_call": per_call_ms("akleylek.keygen"),
        "akleylek.decrypt_all.ms_per_call": per_call_ms("akleylek.decrypt_all"),
        "akleylek.decrypt_all.candidates_per_call": ratio(sum(candidates), len(candidates)),
        "attacks.exhaustive_subset_attack.ms_per_call": per_call_ms(
            "attacks.exhaustive_subset_attack"
        ),
        "attacks.exhaustive_subset_attack.examined_per_call": ratio(
            sum(e for e, _ in exhaustive), len(exhaustive)
        ),
        "attacks.exhaustive_subset_attack.examined_over_binomial": ratio(
            sum(e for e, _ in exhaustive), sum(b for _, b in exhaustive)
        ),
        "attacks.mitm_subset_attack.original.ms_per_call": per_call_ms(
            "attacks.mitm_subset_attack.original"
        ),
        "attacks.mitm_subset_attack.modified.ms_per_call": per_call_ms(
            "attacks.mitm_subset_attack.modified"
        ),
        "attacks.mitm_subset_attack.list_entries_per_call": ratio(sum(mitm), len(mitm)),
        "games.DecryptionOracle.query.ms_per_op": per_op_ms("games.DecryptionOracle.query"),
        "games.mutate_ciphertext.ms_per_op": per_op_ms("games.mutate_ciphertext"),
        "keyfile.parse_key.public.ms_per_op": per_op_ms("keyfile.parse_key.public"),
        "keyfile.parse_key.secret.ms_per_op": per_op_ms("keyfile.parse_key.secret"),
        "keyfile.parse_key.mr_certify_calls_per_op": certify_in_parse / ops,
        "keyfile.serialize_key.ms_per_op": per_op_ms("keyfile.serialize_key"),
        "keyfile.ciphertext_text.ms_per_op": per_op_ms("keyfile.ciphertext_text"),
        "cli.keygen.ms_per_op": per_op_ms("cli.keygen"),
        "cli.encrypt.ms_per_op": per_op_ms("cli.encrypt"),
        "cli.decrypt.ms_per_op": per_op_ms("cli.decrypt"),
    }
    for reason in REJECT_REASONS:
        m[f"modified.decrypt.reject_frac.{reason}"] = ratio(
            sum(1 for t in decrypts if t == reason), len(decrypts)
        )
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_ms_per_op"] = _ms(op_self[layer] / ops)
    m["trace.op_ms_per_op"] = per_op_ms(ROOT)
    # Self times partition the operation spans exactly (integer nanoseconds),
    # unless a span escaped its parent.
    if sum(op_self.values()) != op_time[ROOT]:
        raise CoverageError(
            f"self times cover {sum(op_self.values())} ns of {op_time[ROOT]} ns of operations"
        )
    return m, dict(layer_calls)
