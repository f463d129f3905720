"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps.

The traced benchmark rebinds public knaplab names such as
``knaplab.modified.is_probable_prime``; a refactor that drops one should
fail here, in the test suite, rather than only in a traced benchmark run.
Constructing a Tracer looks every target up without installing anything.
"""

import hashlib
import importlib
import importlib.util
import pathlib
import random
from collections import Counter
from types import SimpleNamespace

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded by file path as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_one_op(spans, layers, op):
    """The spans of op, run once under the benchmark's installed tracer and root span."""
    tracer = spans.Tracer(SimpleNamespace(**layers))
    tracer.install()
    try:
        tracer.op = 0
        tracer.wrap(op, spans.ROOT)()
    finally:
        tracer.uninstall()
    return tracer.take()


def test_tracer_covers_every_wrapped_knaplab_name():
    spans = load_perfbench("spans")
    mods = SimpleNamespace(
        **{layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    )
    tracer = spans.Tracer(mods)  # raises spans.CoverageError on a missing name
    assert len(tracer._bindings) == len(spans.TARGETS)
    for owner, attr, original, _ in tracer._bindings:
        assert getattr(owner, attr) is original  # looked up, not installed


def test_tracer_taggers_read_every_attack_and_decrypt_all_call(toy_keypair):
    """The taggers read AttackReport fields and key class names; both must still exist."""
    spans = load_perfbench("spans")
    layers = {layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    akleylek, attacks, modified = layers["akleylek"], layers["attacks"], layers["modified"]
    pub, sec = toy_keypair
    ct = akleylek.AkleylekCiphertext(10816, 372020)
    mod_pub, _ = modified.keygen(10, 8, random.Random(3))
    mod_ct = modified.encrypt(mod_pub, 5, random.Random(4))

    def op():
        attacks.exhaustive_subset_attack(pub, ct)
        attacks.mitm_subset_attack(pub, ct)
        attacks.mitm_subset_attack(mod_pub, mod_ct)
        akleylek.decrypt_all(sec, ct)

    metrics, _ = spans.layer_metrics(trace_one_op(spans, layers, op), 1)
    for name in (
        "attacks.exhaustive_subset_attack.examined_per_call",
        "attacks.mitm_subset_attack.list_entries_per_call",
        "akleylek.decrypt_all.candidates_per_call",
        "attacks.mitm_subset_attack.original.ms_per_call",
        "attacks.mitm_subset_attack.modified.ms_per_call",
    ):
        assert metrics[name] > 0, name


def test_tracer_tags_parsed_key_files_of_both_schemes_by_role(toy_keypair):
    """The role tag reads "Public" or "Secret" in the parsed key's class name."""
    spans = load_perfbench("spans")
    layers = {layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    keyfile, modified = layers["keyfile"], layers["modified"]
    keys = (*toy_keypair, *modified.keygen(10, 8, random.Random(3)))
    texts = [keyfile.serialize_key(key) for key in keys]

    def op():
        for text in texts:
            keyfile.parse_key(text)

    recorded = trace_one_op(spans, layers, op)
    metrics, _ = spans.layer_metrics(recorded, 1)
    assert metrics["keyfile.parse_key.public.ms_per_op"] > 0
    assert metrics["keyfile.parse_key.secret.ms_per_op"] > 0
    assert not [span for span in recorded if span[0].endswith(".params")]


def test_tracer_reads_a_cli_encrypt_decrypt_round(tmp_path, capsys):
    """The CLI path cli-roundtrip traces: each key file parsed once, its group certified once."""
    spans = load_perfbench("spans")
    layers = {layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    cli = layers["cli"]
    pub, sec = str(tmp_path / "k.pub"), str(tmp_path / "k.sec")
    keygen = ["keygen", "--scheme", "modified", "-n", "16", "--prime-bits", "16", "--seed", "3"]
    assert cli.main(keygen + ["--public-out", pub, "--secret-out", sec]) == 0
    capsys.readouterr()
    message = str(random.Random(4).getrandbits(200))

    def op():
        assert cli.main(["encrypt", "--key", pub, "--message", message, "--seed", "5"]) == 0
        ct_text = capsys.readouterr().out.strip()
        assert cli.main(["decrypt", "--key", sec, "--ciphertext", ct_text]) == 0
        assert capsys.readouterr().out.strip() == message

    recorded = trace_one_op(spans, layers, op)
    metrics, _ = spans.layer_metrics(recorded, 1)
    for name in (
        "cli.encrypt.ms_per_op",
        "cli.decrypt.ms_per_op",
        "keyfile.parse_key.public.ms_per_op",
        "keyfile.parse_key.secret.ms_per_op",
    ):
        assert metrics[name] > 0, name
    # The certification's one base-2 round has rounds < 40, which the tracer tags a
    # screen; the secret parser's other calls are exact checks of its 16 small primes.
    parses = {i for i, span in enumerate(recorded) if span[0].startswith("keyfile.parse_key")}
    tags = {
        recorded[i][0]: Counter(
            tag
            for name, _, _, parent, _, tag in recorded
            if name == "numtheory.is_probable_prime" and parent == i
        )
        for i in parses
    }
    assert len(parses) == 2
    assert tags == {
        "keyfile.parse_key.public": {("screen", True): 1},
        "keyfile.parse_key.secret": {("screen", True): 1, ("small", True): 16},
    }


def test_traced_attack_sweep_cycle_reads_the_pinned_counter_digest(tmp_path):
    """One attack-sweep cycle at seed 1, traced, gives run.py's counter_digest.

    run.py --workload attack-sweep --trace 1 --seconds 3 --seed 1 traces
    exactly one cycle and prints the first 16 hex digits of this sha256, so
    a refactor that moves an examined, list-entry or candidate count fails
    here.  Re-pin it only with a declared change of the seeded keys or of
    what an attack counts.
    """
    spans, workloads = load_perfbench("spans"), load_perfbench("workloads")
    mods = SimpleNamespace(
        **{layer: importlib.import_module(f"knaplab.{layer}") for layer in spans.LAYERS}
    )
    wl = workloads.WORKLOADS["attack-sweep"]
    state = wl.setup(mods, 1, str(tmp_path))
    tracer = spans.Tracer(mods)
    op = tracer.wrap(wl.op, spans.ROOT)
    saved = random.getstate()  # each op seeds the global random
    tracer.install()
    try:
        outcomes = []
        for i in range(wl.cycle):
            tracer.op = i
            outcomes.append(op(mods, state, 1, i))
    finally:
        tracer.uninstall()
        random.setstate(saved)
    assert wl.cycle == 72 and outcomes == [workloads.OK] * 72
    signatures = spans.op_signatures(tracer.take())
    digest = hashlib.sha256(repr([signatures.get(i) for i in range(72)]).encode()).hexdigest()
    assert digest[:16] == "cb7f62f689d950a5"
