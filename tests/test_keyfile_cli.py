"""Key/ciphertext file formats and the command-line surface."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaplab import akleylek, cli, keyfile, modified
from knaplab.keyfile import KeyFileError

# --- formats -----------------------------------------------------------------


def test_key_round_trip_identity_for_many_random_keys():
    rng = random.Random(1)
    for _ in range(1000):
        pub, sec = akleylek.keygen(4, 24, rng)
        for key in (pub, sec):
            text = keyfile.serialize_key(key)
            assert keyfile.parse_key(text) == key
            assert keyfile.serialize_key(keyfile.parse_key(text)) == text
    for _ in range(1000):
        pub, sec = modified.keygen(4, 5, rng)
        for key in (pub, sec):
            text = keyfile.serialize_key(key)
            assert keyfile.parse_key(text) == key
            assert keyfile.serialize_key(keyfile.parse_key(text)) == text


def test_key_files_are_flat_hex_lines(toy_keypair):
    pub, _ = toy_keypair
    text = keyfile.serialize_key(pub)
    assert text.splitlines() == [
        "version=1",
        "scheme=original",
        "role=public",
        "n=5",
        "p=a13",
        "s=68,68,68,68,68",
        "u=875,7a6,539,5f,be",
    ]


def test_parse_rejects_malformed_files(toy_keypair):
    pub, _ = toy_keypair
    good = keyfile.serialize_key(pub)
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good.replace("version=1", "version=9"))
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good.replace("scheme=original", "scheme=unknown"))
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good.replace("p=a13", "p=zzz"))
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good + "extra=1\n")
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good + "p=a13\n")  # duplicate
    with pytest.raises(KeyFileError):
        keyfile.parse_key("\n".join(good.splitlines()[:-1]))  # missing field
    with pytest.raises(KeyFileError):
        keyfile.parse_key(good.replace("role=public", "role=owner"))


def test_parse_tolerates_comments_and_blank_lines(toy_params_path):
    params = keyfile.load_key(toy_params_path)
    assert isinstance(params, keyfile.KeyParams)
    assert (params.p, params.g, params.x, params.k) == (2579, 2, 1500, 348)
    assert params.terms == (2, 3, 6, 12, 24)
    assert params.scheme == "original"


def test_ciphertext_text_round_trip():
    ct = akleylek.AkleylekCiphertext(10816, 372020)
    assert keyfile.ciphertext_to_text(ct) == "10816 372020"
    assert keyfile.ciphertext_from_text("10816 372020") == ct
    mct = modified.ModifiedCiphertext(7, 8, 9)
    assert keyfile.ciphertext_from_text(keyfile.ciphertext_to_text(mct)) == mct
    with pytest.raises(KeyFileError):
        keyfile.ciphertext_from_text("12")
    with pytest.raises(KeyFileError):
        keyfile.ciphertext_from_text("1 2 3 4")
    with pytest.raises(KeyFileError):
        keyfile.ciphertext_from_text("one two")


@given(
    st.one_of(
        st.text(),
        st.lists(st.integers(), max_size=4).map(lambda vs: " ".join(map(str, vs))),
    )
)
def test_ciphertext_from_text_raises_only_keyfile_error(text):
    try:
        ct = keyfile.ciphertext_from_text(text)
    except KeyFileError:
        return
    assert keyfile.ciphertext_from_text(keyfile.ciphertext_to_text(ct)) == ct


# --- modified-key trust boundary ------------------------------------------------

_TINY_PRIMES, _TINY_X, _TINY_K = (2, 3), 3, 5


def tiny_modified_key_texts(p, g):
    """Public and secret key files over (p, g), whatever p and g are.

    The files are written field by field, so no key constructor sees the
    group before the parser does; certifying it is the parser's job.
    """
    y, s = pow(g, _TINY_X, p), pow(g, _TINY_K, p)
    mask = pow(y, _TINY_K, p)

    def hexes(vals):
        return ",".join(format(v, "x") for v in vals)

    head = [("n", hexes([len(_TINY_PRIMES)])), ("p", hexes([p]))]
    pub = [("s", hexes([s] * len(_TINY_PRIMES))), ("u", hexes(mask * pi % p for pi in _TINY_PRIMES))]
    sec = [(name, hexes([v])) for name, v in zip("gyxk", (g, y, _TINY_X, _TINY_K))]
    sec.append(("primes", hexes(_TINY_PRIMES)))
    return (
        keyfile._emit("modified", "public", head + pub),
        keyfile._emit("modified", "secret", head + sec),
    )


BAD_GROUPS = {
    "q-composite": (19, 2),  # 19 is prime, but q = 9 is not
    "p-composite": (35, 2),  # q = 17 is prime, 2^34 = 9 (mod 35)
    "p-divisible-by-3": (27, 2),  # q = 13 is prime
    "not-a-generator": (23, 2),  # 2 has order 11 mod 23, and so has s = 2^5
}


def test_tiny_modified_keys_over_a_good_group_parse_and_round_trip(tmp_path, capsys):
    pub_text, sec_text = tiny_modified_key_texts(23, 5)
    assert keyfile.serialize_key(keyfile.parse_key(pub_text)) == pub_text
    assert keyfile.serialize_key(keyfile.parse_key(sec_text)) == sec_text
    pub, sec = tmp_path / "good.pub", tmp_path / "good.sec"
    pub.write_text(pub_text)
    sec.write_text(sec_text)
    assert cli.main(["encrypt", "--key", str(pub), "--message", "17", "--seed", "1"]) == 0
    ct_text = capsys.readouterr().out.strip()
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", ct_text]) == 0
    assert capsys.readouterr().out.strip() == "17"


@pytest.mark.parametrize("case", sorted(BAD_GROUPS))
def test_modified_key_files_over_a_bad_group_are_refused(case, tmp_path, capsys):
    pub_text, sec_text = tiny_modified_key_texts(*BAD_GROUPS[case])
    for text in (pub_text, sec_text):
        with pytest.raises(KeyFileError, match="safe prime|generate"):
            keyfile.parse_key(text)
    pub, sec = tmp_path / "bad.pub", tmp_path / "bad.sec"
    pub.write_text(pub_text)
    sec.write_text(sec_text)
    assert cli.main(["encrypt", "--key", str(pub), "--message", "5", "--seed", "1"]) == 1
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "1 2 3"]) == 1
    assert "invalid key material" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_modified_key_fields():
    pub, sec = modified.keygen(6, 6, random.Random(5))
    return [keyfile._parse_fields(keyfile.serialize_key(key)) for key in (pub, sec)]


hostile_ints = st.one_of(
    st.sampled_from([0, 1, -1, 2]),
    st.integers(max_value=-2),
    st.integers(min_value=0, max_value=2**64).map(lambda v: 2 * v),
    st.integers(min_value=2**256, max_value=2**2048),
    st.integers(),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_key_raises_only_keyfile_error_on_hostile_modified_keys(
    small_modified_key_fields, data
):
    fields = dict(data.draw(st.sampled_from(small_modified_key_fields)))
    name = data.draw(st.sampled_from(sorted(set(fields) - {"version", "scheme", "role"})))
    if "," in fields[name]:  # a sequence: wrong length, or hostile entries
        items = fields[name].split(",")
        values = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=len(items) - 1).map(lambda j: items[:j]),
                st.just(items + items[:1]),
                st.lists(hostile_ints.map(lambda v: format(v, "x")), max_size=2 * len(items)),
            )
        )
        fields[name] = ",".join(values)
    else:
        fields[name] = format(data.draw(hostile_ints), "x")
    text = "".join(f"{k}={v}\n" for k, v in fields.items())
    try:
        key = keyfile.parse_key(text)
    except KeyFileError:
        return
    assert keyfile.parse_key(keyfile.serialize_key(key)) == key


# --- CLI -----------------------------------------------------------------------


@pytest.fixture
def toy_files(tmp_path, toy_params_path):
    pub = tmp_path / "toy.pub"
    sec = tmp_path / "toy.sec"
    rc = cli.main(
        [
            "keygen",
            "--scheme",
            "original",
            "--fixed-key",
            str(toy_params_path),
            "--public-out",
            str(pub),
            "--secret-out",
            str(sec),
        ]
    )
    assert rc == 0
    return pub, sec


def test_cli_keygen_from_fixture_matches_known_values(toy_files):
    pub, sec = toy_files
    key = keyfile.load_key(pub)
    assert key.s_value == 104
    assert key.u == (2165, 1958, 1337, 95, 190)
    skey = keyfile.load_key(sec)
    assert skey.y == 862


def test_cli_keygen_is_seed_reproducible(tmp_path):
    outs = []
    for tag in ("a", "b"):
        pub = tmp_path / f"{tag}.pub"
        sec = tmp_path / f"{tag}.sec"
        rc = cli.main(
            [
                "keygen", "--scheme", "modified", "-n", "6", "--prime-bits", "6",
                "--seed", "99", "--public-out", str(pub), "--secret-out", str(sec),
            ]
        )
        assert rc == 0
        outs.append((pub.read_bytes(), sec.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_encrypt_prints_toy_ciphertext(toy_files, capsys):
    pub, _ = toy_files
    rc = cli.main(["encrypt", "--key", str(pub), "--message", "01001"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10816 372020"


def test_cli_decrypt_lists_both_candidates(toy_files, capsys):
    _, sec = toy_files
    rc = cli.main(["decrypt", "--key", str(sec), "--ciphertext", "10816 372020"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["00110", "01001"]


def test_cli_decrypt_overflow_message_rejects(toy_files, capsys):
    pub, sec = toy_files
    rc = cli.main(["encrypt", "--key", str(pub), "--message", "01111"])
    assert rc == 0
    ct_text = capsys.readouterr().out.strip()
    rc = cli.main(["decrypt", "--key", str(sec), "--ciphertext", ct_text])
    assert rc == 2
    assert capsys.readouterr().out.strip() == "REJECT"


def test_cli_decrypt_reads_stdin(toy_files, capsys, monkeypatch):
    _, sec = toy_files
    monkeypatch.setattr("sys.stdin", io.StringIO("10816 372020\n"))
    rc = cli.main(["decrypt", "--key", str(sec)])
    assert rc == 0
    assert "01001" in capsys.readouterr().out


def test_cli_attack_strategies_agree(toy_files, capsys):
    pub, _ = toy_files
    rc = cli.main(
        ["attack", "--key", str(pub), "--ciphertext", "10816 372020", "--strategy", "exhaustive"]
    )
    assert rc == 0
    out_exh = capsys.readouterr().out.splitlines()
    rc = cli.main(
        ["attack", "--key", str(pub), "--ciphertext", "10816 372020", "--strategy", "mitm", "--split", "2"]
    )
    assert rc == 0
    out_mitm = capsys.readouterr().out.splitlines()
    assert out_exh[0] == out_mitm[0] == "01001"
    assert out_exh[1] == cli.BENCH_HEADER
    row = out_exh[2].split(",")
    assert row[0] == "5" and row[1] == "2" and row[2] == "10"


def test_cli_attack_refuses_secret_key(toy_files, capsys):
    _, sec = toy_files
    rc = cli.main(["attack", "--key", str(sec), "--ciphertext", "10816 372020"])
    assert rc == 1
    assert "refusing" in capsys.readouterr().err


def test_cli_encrypt_refuses_secret_key(toy_files, capsys):
    _, sec = toy_files
    rc = cli.main(["encrypt", "--key", str(sec), "--message", "01001"])
    assert rc == 1


def test_cli_audit_reports_toy_collisions(toy_files, capsys):
    _, sec = toy_files
    rc = cli.main(["audit", "--key", str(sec)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "collision product=72 messages=00110,01001,11010" in out
    assert "overflow message=01111" in out
    assert "unique_fraction=0.781250" in out


def test_cli_modified_pipeline_round_trip(tmp_path, capsys):
    pub = tmp_path / "m.pub"
    sec = tmp_path / "m.sec"
    assert (
        cli.main(
            [
                "keygen", "--scheme", "modified", "-n", "10", "--prime-bits", "8",
                "--seed", "4", "--public-out", str(pub), "--secret-out", str(sec),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert cli.main(["encrypt", "--key", str(pub), "--message", "123456", "--seed", "8"]) == 0
    ct_text = capsys.readouterr().out.strip()
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", ct_text]) == 0
    assert capsys.readouterr().out.strip() == "123456"
    # hex message spelling encrypts identically under the same seed
    assert cli.main(["encrypt", "--key", str(pub), "--message", "0x1e240", "--seed", "8"]) == 0
    assert capsys.readouterr().out.strip() == ct_text


def test_cli_modified_keygen_at_full_size_reloads_consistently(tmp_path):
    import math

    pub = tmp_path / "m.pub"
    sec = tmp_path / "m.sec"
    rc = cli.main(
        [
            "keygen", "--scheme", "modified", "-n", "16", "--prime-bits", "16",
            "--seed", "70", "--public-out", str(pub), "--secret-out", str(sec),
        ]
    )
    assert rc == 0
    skey = keyfile.load_key(sec)
    assert skey.p > math.prod(skey.primes.primes)
    pkey = keyfile.load_key(pub)
    assert pkey.p == skey.p and pkey.n == 16


def test_cli_modified_tampered_c1_rejects(tmp_path, capsys):
    pub = tmp_path / "m.pub"
    sec = tmp_path / "m.sec"
    cli.main(
        [
            "keygen", "--scheme", "modified", "-n", "10", "--prime-bits", "8",
            "--seed", "5", "--public-out", str(pub), "--secret-out", str(sec),
        ]
    )
    capsys.readouterr()
    cli.main(["encrypt", "--key", str(pub), "--message", "5555", "--seed", "6"])
    c1p, c1pp, c2 = capsys.readouterr().out.split()
    tampered = f"{c1p} {int(c1pp) + 1} {c2}"
    rc = cli.main(["decrypt", "--key", str(sec), "--ciphertext", tampered])
    assert rc == 2
    assert capsys.readouterr().out.strip() == "REJECT"


def test_cli_game_distinguisher_row(capsys):
    rc = cli.main(
        [
            "game", "--game", "distinguisher", "--scheme", "original",
            "--trials", "25", "-n", "6", "--seed", "1",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.GAME_HEADER
    scheme, adversary, trials, wins, advantage, rejections = lines[1].split(",")
    assert (scheme, adversary) == ("original", "deterministic-distinguisher")
    assert (trials, wins) == ("25", "25")
    assert float(advantage) == 0.5


def test_cli_game_fuzzer_reports_kinds(capsys):
    rc = cli.main(
        [
            "game", "--game", "fuzzer", "--scheme", "modified",
            "--mutations", "36", "-n", "8", "--prime-bits", "7", "--seed", "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "kind,c2," in out
    assert "finding," in out


def test_cli_game_completeness_row(capsys):
    rc = cli.main(
        [
            "game", "--game", "completeness", "--scheme", "modified",
            "--trials", "10", "-n", "8", "--prime-bits", "7", "--seed", "3",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.COMPLETENESS_HEADER
    assert lines[1] == "modified,completeness,10,10,0,0"


def test_cli_game_malleation_requires_modified(capsys):
    rc = cli.main(
        ["game", "--game", "malleation-case1", "--scheme", "original", "--trials", "2"]
    )
    assert rc == 1


def test_cli_bench_rows_carry_regimes(capsys):
    rc = cli.main(["bench", "-n", "10", "--h-values", "1,5,9", "--seed", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.BENCH_HEADER + ",regime"
    regimes = [line.split(",")[-1] for line in lines[1:]]
    assert regimes == ["small", "medium", "large"]
    for line in lines[1:]:
        n, h, exact, bound, examined = line.split(",")[:5]
        assert int(examined) <= int(exact)
        assert int(exact) <= float(bound) + 1e-9


def test_cli_errors_exit_one(toy_files, capsys):
    pub, sec = toy_files
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "junk"]) == 1
    assert cli.main(["encrypt", "--key", str(pub), "--message", "0abc"]) == 1
    assert cli.main(["decrypt", "--key", "/nonexistent", "--ciphertext", "1 2"]) == 1


def test_cli_mismatched_ciphertext_scheme(toy_files, capsys):
    pub, sec = toy_files
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "1 2 3"]) == 1
    assert cli.main(["attack", "--key", str(pub), "--ciphertext", "1 2 3"]) == 1
