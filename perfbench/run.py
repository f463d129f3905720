"""knaplab benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload cli-roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (import plus seeded input
generation, median reported as ``setup_s``), then runs a closed loop of
operations for ``--seconds`` and prints the ``end_to_end`` metrics of
BENCHMARK.json.  ``--trace 1`` runs a fixed number of operations twice,
untraced and with spans recorded around every public knaplab call, in
alternating blocks, then a prefix of them once more to check that every
counter repeats exactly; it prints the ``per_layer`` metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time

from spans import LAYERS, ROOT, CoverageError, Tracer, layer_metrics, op_signatures
from workloads import EXCUSED, FAIL, WORKLOADS

REPO = Path(__file__).resolve().parents[1]
SPEC = REPO / "BENCHMARK.json"
EXPECTATIONS = Path(__file__).resolve().parent / "expectations.json"
SETUP_REPEATS = 5
# No p99.9: on a shared 2-core Xeon host 0.1-0.5% of sub-millisecond
# operations stall 2-13 ms, at different operations on every run, so that
# percentile measures the neighbours rather than the program.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # the tail percentile must leave at least this many operations above it
TRACE_SHARE = 0.3  # traced operations, as a share of --seconds at the nominal rate
CHECK_SHARE = 0.25  # share of the traced operations run again to check the counters
TRACE_BLOCKS = 4  # untraced and traced passes alternate in this many blocks


@dataclass
class Loop:
    latencies_ns: list[int] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def import_knaplab():
    """Fresh import of every layer module, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "knaplab" or m.startswith("knaplab.")]:
        del sys.modules[name]
    return argparse.Namespace(
        **{m: importlib.import_module(f"knaplab.{m}") for m in LAYERS}
    )


def run_ops(wl, mods, state, seed, indices, *, seconds=None, op=None, tracer=None, loop=None):
    """Closed loop over operation ids: the next starts when the previous returns.

    With ``seconds`` the loop stops at the first operation that ends past the
    deadline.  Passing ``loop`` accumulates into it.
    """
    op = op or wl.op
    loop = loop or Loop()
    first_error = True
    cpu0, t0 = process_time(), perf_counter()
    deadline = t0 + seconds if seconds is not None else None
    for i in indices:
        if tracer is not None:
            tracer.op = i
        start = perf_counter_ns()
        try:
            outcome = op(mods, state, seed, i)
        except Exception:
            outcome = FAIL
            if first_error:
                traceback.print_exc(file=sys.stderr)
                first_error = False
        loop.latencies_ns.append(perf_counter_ns() - start)
        loop.outcomes[outcome] += 1
        if deadline is not None and perf_counter() >= deadline:
            break
    loop.wall_s += perf_counter() - t0
    loop.cpu_s += process_time() - cpu0
    if tracer is not None:
        tracer.op = None
    return loop


def tail(latencies_ns, nominal_ops: int) -> tuple[float, float]:
    """(percentile, ms): the highest ladder percentile with TAIL_BEYOND operations above it.

    The percentile is chosen on the smaller of the actual and the nominal
    operation count, so a faster or slower machine does not switch it.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    judged = min(n, nominal_ops)
    for q in TAIL_LADDER:
        if judged - math.ceil(q / 100 * judged) >= TAIL_BEYOND:
            return q, ordered[math.ceil(q / 100 * n) - 1] / 1e6  # nearest rank
    return 100.0, ordered[-1] / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    """BENCHMARK.json, checked against the workloads and the expectation map."""
    spec = json.loads(SPEC.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for row in json.loads(EXPECTATIONS.read_text())["moves"]:
        unknown = ({row["per_layer"], *row["moves"]} - metrics) | ({row["on"]} - names)
        if unknown:
            raise SystemExit(f"expectations.json names unknown metrics: {sorted(unknown)}")
    return spec


def end_to_end(wl, args, workdir) -> tuple[dict, Loop, dict]:
    setup_times = []
    for rep in reversed(range(SETUP_REPEATS)):  # repetition 0 last: its inputs are used
        t0 = perf_counter()
        mods = import_knaplab()
        state = wl.setup(mods, args.seed, workdir, rep)
        setup_times.append(perf_counter() - t0)
    loop = run_ops(wl, mods, state, args.seed, itertools.count(), seconds=args.seconds)
    q, tail_ms = tail(loop.latencies_ns, round(wl.nominal_ops_per_s * args.seconds))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop.ops / loop.wall_s,
        "op_ms_p50": statistics.median(loop.latencies_ns) / 1e6,
        "op_ms_tail": tail_ms,
        "cpu_ms_per_op": loop.cpu_s * 1e3 / loop.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_repeats": SETUP_REPEATS,
        "op_ms_tail_percentile": q,
        "op_ms_tail_samples": loop.ops,
        "c2_only_acceptances": loop.outcomes[EXCUSED],
    }
    return metrics, loop, notes


def traced(wl, args, workdir) -> tuple[dict, list[Loop], dict, list[str]]:
    """Untraced and traced passes over the same k operations, then a counter re-check.

    The passes alternate in blocks, so drift in the machine's load affects
    both sides of ``trace.overhead_frac`` alike.
    """
    k = wl.cycle * max(1, round(TRACE_SHARE * args.seconds * wl.nominal_ops_per_s / wl.cycle))
    k_check = wl.cycle * max(1, round(CHECK_SHARE * k / wl.cycle))
    block = wl.cycle * math.ceil(k / wl.cycle / TRACE_BLOCKS)
    mods = import_knaplab()
    tracer = Tracer(mods)
    op = tracer.wrap(wl.op, ROOT)
    tracer.install()
    state = wl.setup(mods, args.seed, workdir)  # set-up spans carry op None
    tracer.uninstall()
    untraced, first = Loop(), Loop()
    for start in range(0, k, block):
        ids = range(start, min(k, start + block))
        run_ops(wl, mods, state, args.seed, ids, loop=untraced)
        tracer.install()
        run_ops(wl, mods, state, args.seed, ids, op=op, tracer=tracer, loop=first)
        tracer.uninstall()
    spans = tracer.take()
    tracer.install()
    again = run_ops(wl, mods, state, args.seed, range(k_check), op=op, tracer=tracer)
    tracer.uninstall()
    spans_again = tracer.take()

    errors = []
    metrics, layer_calls = layer_metrics(spans, k)
    metrics["trace.overhead_frac"] = first.wall_s / untraced.wall_s - 1
    silent = [layer for layer in wl.expected_layers if not layer_calls.get(layer)]
    if silent:
        errors.append(f"expected layers recorded zero calls: {silent}")
    sig, sig_again = op_signatures(spans), op_signatures(spans_again)
    differ = [i for i in range(k_check) if sig.get(i) != sig_again.get(i)]
    if differ:
        errors.append(f"counters did not repeat on operations {differ[:10]}")
    digest = hashlib.sha256(repr([sig.get(i) for i in range(k)]).encode()).hexdigest()
    notes = {
        "traced_ops": k,
        "recheck_ops": k_check,
        "spans": len(spans),
        "layer_calls": layer_calls,
        "counter_digest": digest[:16],
        "untraced_ops_per_s": k / untraced.wall_s,
        "traced_ops_per_s": k / first.wall_s,
    }
    return metrics, [untraced, first, again], notes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = load_spec()
    if not (REPO / "src" / "knaplab" / "__init__.py").is_file():
        print(f"error: no knaplab package under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    wl = WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=REPO) as workdir:
            if args.trace:
                metrics, loops, notes, errors = traced(wl, args, workdir)
            else:
                metrics, loop, notes = end_to_end(wl, args, workdir)
                loops, errors = [loop], []
    except CoverageError as exc:
        print(f"error: trace coverage: {exc}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3

    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.outcomes[FAIL] for loop in loops)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, 1 thread",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": commit(),
        **notes,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, unit in units.items():
        note = ""
        if name == "op_ms_tail":
            q, samples = notes["op_ms_tail_percentile"], notes["op_ms_tail_samples"]
            note = f"  (p{q:g} of {samples} operations)"
        print(f"{name:<56} {metrics[name]:>14.6g} {unit}{note}")
    if not args.trace:
        print(
            f"{'failed_frac':<56} {failed / attempted:>14.6g} ratio  ({failed} failed of "
            f"{attempted} attempted; {notes['c2_only_acceptances']} documented C2-only "
            "acceptances not counted)"
        )
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
