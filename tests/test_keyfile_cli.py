"""Key/ciphertext file formats and the command-line surface."""

import argparse
import dataclasses
import decimal
import hashlib
import inspect
import io
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaplab import akleylek, attacks, cli, games, keyfile, modified, schemes
from knaplab.errors import ParameterError
from knaplab.keyfile import KeyFileError
from knaplab.numtheory import BitVector, SafePrimeGroup

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
    with pytest.raises(KeyFileError, match="line 5: expected name=value"):
        keyfile.parse_key(good.replace("p=a13", "p a13"))


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


def test_ciphertext_text_is_plain_decimal_at_any_size():
    """Components past CPython's 4300-digit int/str limit still travel as decimal."""
    rng = random.Random(12)
    sizes = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (1, 1993, 1994, 14284, 14300, 120000)]
    edges = [10**e + d for e in (599, 600, 4300, 9000) for d in (-1, 0, 1)]
    values = sizes + edges
    for c1, c2 in zip(values, reversed(values)):
        for ct in (akleylek.AkleylekCiphertext(c1, c2), modified.ModifiedCiphertext(c2, c1, c1)):
            text = keyfile.ciphertext_to_text(ct)
            # Decimal converts ints without a digit limit, so it is the reference here.
            assert text.split() == [str(decimal.Decimal(v)) for v in dataclasses.astuple(ct)]
            assert keyfile.ciphertext_from_text(text) == ct
    long = "7" * 5000
    for token in (long + "x", "-" + long, "+" + long, "1_" * 2500, long[:-1] + "٣"):
        with pytest.raises(KeyFileError):
            keyfile.ciphertext_from_text(f"{token} 5")


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


def tiny_modified_key_texts(p, g, x=_TINY_X, k=_TINY_K):
    """Public and secret key files over (p, g), whatever p, g, x and k are.

    The files are written field by field, so no key constructor sees the
    group before the parser does; certifying it is the parser's job.
    """
    y, s = pow(g, x, p), pow(g, k, p)
    mask = pow(y, k, p)

    def hexes(vals):
        return ",".join(format(v, "x") for v in vals)

    head = [("n", hexes([len(_TINY_PRIMES)])), ("p", hexes([p]))]
    pub = [("s", hexes([s] * len(_TINY_PRIMES))), ("u", hexes(mask * pi % p for pi in _TINY_PRIMES))]
    sec = [(name, hexes([v])) for name, v in zip("gyxk", (g, y, x, k))]
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


@pytest.mark.parametrize("prime_bits", [16, 24])
def test_certifying_a_group_leaves_the_global_random_untouched(prime_bits):
    """Certification is deterministic: it draws no Miller-Rabin bases from ``random``.

    24-bit key primes lie above 10^6, so they are certified, not trial-divided.
    """
    state = random.getstate()
    pub, sec = modified.keygen(16, prime_bits, random.Random(3))
    assert random.getstate() == state
    assert (sec.p - 1) // 2 > 10**12  # large enough to be certified, not trial-divided
    SafePrimeGroup(sec.p, sec.g)
    assert random.getstate() == state
    for key in (pub, sec):
        keyfile.parse_key(keyfile.serialize_key(key))
        assert random.getstate() == state


# (x, k) over p = 23: each out of [1, p - 2], each with y = g^x and gcd(k, p - 1) = 1
BAD_EXPONENTS = {
    "x-zero": (0, _TINY_K),  # y = 1, so every u_i would be a secret prime itself
    "x-p-minus-1": (22, _TINY_K),
    "x-negative": (-_TINY_X, _TINY_K),
    "x-above-p": (23 + _TINY_X, _TINY_K),
    "k-negative": (_TINY_X, -_TINY_K),
    "k-above-p-minus-2": (_TINY_X, 22 + _TINY_K),
}


@pytest.mark.parametrize("case", sorted(BAD_EXPONENTS))
def test_modified_secret_key_files_with_exponents_out_of_range_are_refused(
    case, tmp_path, capsys
):
    _, sec_text = tiny_modified_key_texts(23, 5, *BAD_EXPONENTS[case])
    with pytest.raises(KeyFileError, match="exponents must lie in"):
        keyfile.parse_key(sec_text)
    sec = tmp_path / "bad.sec"
    sec.write_text(sec_text)
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "1 2 3"]) == 1
    assert "invalid key material" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_modified_key_fields():
    pub, sec = modified.keygen(6, 6, random.Random(5))
    return [keyfile._parse_fields(keyfile.serialize_key(key)) for key in (pub, sec)]


@pytest.fixture(scope="module")
def small_original_key_fields():
    pub, sec = akleylek.keygen(6, 48, random.Random(5))
    return [keyfile._parse_fields(keyfile.serialize_key(key)) for key in (pub, sec)]


hostile_ints = st.one_of(
    st.sampled_from([0, 1, -1, 2]),
    st.integers(max_value=-2),
    st.integers(min_value=0, max_value=2**64).map(lambda v: 2 * v),
    st.integers(min_value=2**256, max_value=2**2048),
    st.integers(),
)


def assert_hostile_field_raises_only_keyfile_error(key_fields, data):
    """Replace one field of a valid key file by hostile text, then parse it.

    The parse either fails with KeyFileError or yields a key that round-trips.
    """
    fields = dict(data.draw(st.sampled_from(key_fields)))
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_key_raises_only_keyfile_error_on_hostile_modified_keys(
    small_modified_key_fields, data
):
    assert_hostile_field_raises_only_keyfile_error(small_modified_key_fields, data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_key_raises_only_keyfile_error_on_hostile_original_keys(
    small_original_key_fields, data
):
    assert_hostile_field_raises_only_keyfile_error(small_original_key_fields, data)


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


def test_cli_calls_share_one_parser_and_no_parsed_state(tmp_path):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    outs = ["--public-out", str(tmp_path / "k.pub"), "--secret-out", str(tmp_path / "k.sec")]
    first = parser.parse_args(["keygen", "--scheme", "original", "-n", "3", "--seed", "3", *outs])
    second = parser.parse_args(["keygen", "--scheme", "modified", *outs])
    assert (first.scheme, first.n, first.seed) == ("original", 3, 3)
    assert (second.scheme, second.n, second.seed) == ("modified", None, None)
    # through main: a seed given once is not reused by a later call without one
    keys = []
    for seed in (["--seed", "3"], []):
        argv = ["keygen", "--scheme", "modified", "-n", "4", "--prime-bits", "8", *seed, *outs]
        assert cli.main(argv) == 0
        keys.append((tmp_path / "k.sec").read_bytes())
    assert keys[0] != keys[1]


@pytest.mark.parametrize(
    "args, digest",
    [
        # gen_safe_prime's rejection-sampling path (p of at most 16 bits)
        ("modified -n 2 --prime-bits 4", "860f42264233ad7f027e011c68a04f71e8f5484600c07b5c40d7b32c9bd64172"),
        ("original -n 3", "a38fafb3fc3481e94964c21922b494a936cdd37904d935a9df42592cd6b9c117"),
        # its windowed sieve
        ("modified -n 16 --prime-bits 16", "ea0f4dab62cf41ebb84d56a0b2a414b6e003beff6acf038143a15bac4a651606"),
        ("original -n 12", "8fb05d1f8835eeaff9a22d3b12f6719430361b664f71873da34051507d8934f0"),
    ],
)
def test_cli_keygen_seed_zero_writes_the_pinned_secret_key(tmp_path, args, digest):
    # the same seed must keep giving the same key across versions, not only within one
    pub, sec = tmp_path / "k.pub", tmp_path / "k.sec"
    argv = ["keygen", "--scheme", *args.split(), "--seed", "0"]
    assert cli.main([*argv, "--public-out", str(pub), "--secret-out", str(sec)]) == 0
    assert hashlib.sha256(sec.read_bytes()).hexdigest() == digest


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
    assert row[3] == "28.9352" and row[4] == "6"  # bound and subsets examined


def test_cli_round_trip_past_the_int_str_digit_limit(tmp_path, capsys):
    # C2 multiplies thirty 600-bit u_i: about 5400 decimal digits.
    pub, sec = tmp_path / "pub.key", tmp_path / "sec.key"
    argv = ["keygen", "--scheme", "original", "-n", "30", "--modulus-bits", "600", "--seed", "1"]
    assert cli.main(argv + ["--public-out", str(pub), "--secret-out", str(sec)]) == 0
    capsys.readouterr()
    message = "1" * 30
    assert cli.main(["encrypt", "--key", str(pub), "--message", message]) == 0
    ct_text = capsys.readouterr().out.strip()
    assert max(len(tok) for tok in ct_text.split()) > 4300
    assert cli.main(["decrypt", "--key", str(sec), "--limit", "30", "--ciphertext", ct_text]) == 0
    assert capsys.readouterr().out.split() == [message]
    assert cli.main(["attack", "--key", str(pub), "--ciphertext", ct_text]) == 0
    assert capsys.readouterr().out.splitlines()[0] == message


@pytest.mark.parametrize("strategy", ["exhaustive", "mitm", "divisor"])
def test_cli_attack_refuses_an_original_key_with_s_one(strategy, tmp_path, capsys):
    # an original key file is not certified, so s = 1 parses; C1 = 1^h then hides h
    pub = akleylek.AkleylekPublicKey(n=5, p=2579, s=(1,) * 5, u=(2165, 1958, 1337, 95, 190))
    path = tmp_path / "s1.pub"
    path.write_text(keyfile.serialize_key(pub))
    argv = ["attack", "--key", str(path), "--ciphertext", "1 372020", "--strategy", strategy]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: s = 1") and "every weight" in err


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
    overflows = [line for line in out.splitlines() if line.startswith("overflow")]
    assert overflows == [f"overflow message={m}" for m in ("01111", "10111", "11111")]
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


def test_cli_modified_round_trip_with_primes_too_large_to_sieve(tmp_path, capsys):
    pub, sec = tmp_path / "m.pub", tmp_path / "m.sec"
    argv = ["keygen", "--scheme", "modified", "-n", "3", "--prime-bits", "24", "--seed", "1"]
    assert cli.main(argv + ["--public-out", str(pub), "--secret-out", str(sec)]) == 0
    capsys.readouterr()
    assert cli.main(["encrypt", "--key", str(pub), "--message", "4242", "--seed", "3"]) == 0
    ct_text = capsys.readouterr().out.strip()
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", ct_text]) == 0
    assert capsys.readouterr().out.strip() == "4242"


def test_cli_modified_keygen_at_full_size_reloads_consistently(tmp_path):
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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["-n", "0"], "need n >= 2"),
        (["-n", "-3"], "need n >= 2"),
        (["-n", "1"], "need n >= 2"),
        (["-n", "1", "--h-values", "1"], "need n >= 2"),
        (["-n", "6", "--h-values", "3,99"], "h=99 out of range for n=6"),
        (["-n", "6", "--h-values", "0,3"], "h=0 out of range for n=6"),
        (["-n", "6", "--h-values", "3,,4"], "token ''"),
        (["-n", "6", "--h-values", "3,four"], "token 'four'"),
    ],
)
def test_cli_bench_rejects_bad_sizes_before_printing_a_row(extra, message, capsys):
    assert cli.main(["bench", "--seed", "1"] + extra) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_cli_errors_exit_one(toy_files, capsys):
    pub, sec = toy_files
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "junk"]) == 1
    assert cli.main(["encrypt", "--key", str(pub), "--message", "0abc"]) == 1
    assert cli.main(["decrypt", "--key", "/nonexistent", "--ciphertext", "1 2"]) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["keygen", "--scheme", "original"], 1),
        (["game", "--game", "completeness", "--scheme", "original", "--max-step", "3"], 1),
    ],
)
def test_cli_usage_errors_exit_one_and_help_exits_zero(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code


# A modified public key that parses (its group 23 = 2*11 + 1 certifies) but
# that no secret key can match: n = 4 needs q >= 2^5, and q = 11.
OVERSIZED_N_PUBLIC_KEY = """version=1
scheme=modified
role=public
n=4
p=17
s=5,5,5,5
u=2,3,4,6
"""

# The toy secret key with g = 1, so y = 1 and s = g^k = 1.  It parses, since
# the original scheme does not certify its key files, but C1 = s^h = 1 for
# every weight h.
G_ONE_SECRET_KEY = """version=1
scheme=original
role=secret
n=5
p=a13
g=1
y=1
x=5dc
k=15c
a=2,3,6,c,18
"""

# argv placeholders: OUT is a fresh output path, TOY_SEC the toy secret key
# file, and every other capitalised name a key file written from refusal_files
REFUSED_INPUTS = {
    "keygen-without-n-or-fixed-key": (
        ["keygen", "--scheme", "original", "--public-out", "OUT", "--secret-out", "OUT"],
        "-n is required",
    ),
    "audit-modified-key": (["audit", "--key", "MODIFIED_SEC"], "original-scheme"),
    "audit-above-its-limit": (
        ["audit", "--key", "TOY_SEC", "--limit", "4"], "n=5 exceeds the exhaustive scan limit 4"
    ),
    "key-line-without-equals": (
        ["encrypt", "--key", "NO_EQUALS", "--message", "01001"], "expected name=value"
    ),
    "encrypt-key-no-secret-key-matches": (
        ["encrypt", "--key", "OVERSIZED_N_PUB", "--message", "5"], "n must stay below bitlen"
    ),
    "secret-key-modulus-below-prime-product": (
        ["decrypt", "--key", "SMALL_P_SEC", "--ciphertext", "1 2 3"], "modulus must exceed"
    ),
    "secret-key-n-too-large": (
        ["decrypt", "--key", "BIG_N_SEC", "--ciphertext", "1 2 3"], "n must stay below bitlen"
    ),
    "keygen-other-schemes-params": (
        ["keygen", "--scheme", "modified", "--fixed-key", "TOY_PARAMS", "--public-out", "OUT",
         "--secret-out", "OUT"],
        "params file is for scheme 'original', not 'modified'",
    ),
    "keygen-term-divisible-by-p": (
        ["keygen", "--scheme", "original", "--fixed-key", "ZERO_TERM_PARAMS", "--public-out",
         "OUT", "--secret-out", "OUT"],
        "sequence terms must be nonzero mod p",
    ),
    "keygen-n-below-two": (
        ["keygen", "--scheme", "original", "-n", "1", "--public-out", "OUT", "--secret-out",
         "OUT"],
        "need n >= 2",
    ),
    "divisor-reduced-target": (
        ["attack", "--key", "MODIFIED_PUB", "--ciphertext", "1 2 3", "--strategy", "divisor"],
        "divisibility means nothing mod p",
    ),
    "mitm-one-position-key": (
        ["attack", "--key", "ONE_POSITION_PUB", "--ciphertext", "104 2165", "--strategy", "mitm"],
        "needs two positions",
    ),
    "encrypt-unequal-s": (
        ["encrypt", "--key", "TOY_BAD_S", "--message", "01001"], "s components must be equal"
    ),
    "distinguisher-no-trials": (
        ["game", "--game", "distinguisher", "--scheme", "original", "--trials", "0"],
        "need at least one trial",
    ),
    "completeness-no-trials": (
        ["game", "--game", "completeness", "--scheme", "original", "--trials", "0"],
        "need at least one trial",
    ),
    "decrypt-key-with-s-one": (
        ["decrypt", "--key", "G_ONE_SEC", "--ciphertext", "1 2"],
        "s = 1 makes C1 = 1 for every weight, so C1 cannot reveal h",
    ),
    "fuzzer-no-mutations": (
        ["game", "--game", "fuzzer", "--scheme", "modified", "--mutations", "0"],
        "need at least one mutation",
    ),
}


def refusal_files(toy_pub_text, toy_params_text):
    """The text of each key file REFUSED_INPUTS names, by placeholder."""
    return {
        "TOY_BAD_S": toy_pub_text.replace("s=68,68,68,68,68", "s=68,68,68,68,69"),
        "MODIFIED_PUB": tiny_modified_key_texts(23, 5)[0],
        "MODIFIED_SEC": tiny_modified_key_texts(23, 5)[1],
        "NO_EQUALS": toy_pub_text.replace("p=a13", "p a13"),
        "OVERSIZED_N_PUB": OVERSIZED_N_PUBLIC_KEY,
        "ONE_POSITION_PUB": toy_pub_text.replace("n=5", "n=1")
        .replace("s=68,68,68,68,68", "s=68")
        .replace("u=875,7a6,539,5f,be", "u=875"),
        "SMALL_P_SEC": tiny_modified_key_texts(5, 2, 3, 3)[1],  # primes 2 * 3 >= 5
        "BIG_N_SEC": tiny_modified_key_texts(11, 2, 3, 3)[1],  # n = 2 needs q >= 2^3
        "G_ONE_SEC": G_ONE_SECRET_KEY,
        "TOY_PARAMS": toy_params_text,
        "ZERO_TERM_PARAMS": toy_params_text.replace("a=2,3,6,c,18", "a=2,3,6,c,a13"),
    }


@pytest.mark.parametrize("case", sorted(REFUSED_INPUTS))
def test_cli_refusals_print_one_error_line_and_nothing_else(
    case, toy_files, toy_params_path, tmp_path, capsys
):
    argv, message = REFUSED_INPUTS[case]
    paths = {"OUT": tmp_path / "out", "TOY_SEC": toy_files[1]}
    files = refusal_files(toy_files[0].read_text(), toy_params_path.read_text())
    for name, text in files.items():
        paths[name] = tmp_path / name.lower()
        paths[name].write_text(text)
    assert cli.main([str(paths.get(a, a)) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    assert not paths["OUT"].exists()


def test_cli_mismatched_ciphertext_scheme(toy_files, capsys):
    pub, sec = toy_files
    assert cli.main(["decrypt", "--key", str(sec), "--ciphertext", "1 2 3"]) == 1
    assert cli.main(["attack", "--key", str(pub), "--ciphertext", "1 2 3"]) == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("game", ["malleation-case1", "malleation-case2"])
def test_cli_game_malleation_needs_at_least_one_trial(game, trials, capsys):
    argv = ["game", "--game", game, "--scheme", "modified", "--trials", trials, "-n", "8"]
    assert cli.main(argv + ["--prime-bits", "7", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "need at least one trial" in err


# --- one key builder for CLI sizes ---------------------------------------------

KEYGEN_SIZES = {
    "original-default-bits": (
        ["--scheme", "original", "-n", "8"],
        lambda rng: akleylek.keygen(8, games.suggested_modulus_bits(8), rng),
    ),
    "original-modulus-bits": (
        ["--scheme", "original", "-n", "8", "--modulus-bits", "60"],
        lambda rng: akleylek.keygen(8, 60, rng),
    ),
    "original-max-step": (
        ["--scheme", "original", "-n", "8", "--max-step", "3"],
        lambda rng: akleylek.keygen(8, games.suggested_modulus_bits(8, 3), rng, max_step=3),
    ),
    "original-allow-overflow": (
        ["--scheme", "original", "-n", "12", "--modulus-bits", "40", "--allow-overflow"],
        lambda rng: akleylek.keygen(12, 40, rng, enforce_capacity=False),
    ),
    "modified-prime-bits": (
        ["--scheme", "modified", "-n", "8", "--prime-bits", "7"],
        lambda rng: modified.keygen(8, 7, rng),
    ),
}


@pytest.mark.parametrize("case", sorted(KEYGEN_SIZES))
def test_cli_keygen_writes_the_library_key_for_each_size_flag(case, tmp_path, capsys):
    flags, build = KEYGEN_SIZES[case]
    pub, sec = tmp_path / "k.pub", tmp_path / "k.sec"
    argv = ["keygen", *flags, "--seed", "11", "--public-out", str(pub), "--secret-out", str(sec)]
    assert cli.main(argv) == 0
    want = [keyfile.serialize_key(key) for key in build(random.Random(11))]
    assert [pub.read_text(), sec.read_text()] == want


def test_cli_keygen_refuses_an_overflowing_modulus_without_the_flag(tmp_path, capsys):
    pub, sec = tmp_path / "k.pub", tmp_path / "k.sec"
    argv = ["keygen", "--scheme", "original", "-n", "12", "--modulus-bits", "40", "--seed", "11"]
    assert cli.main(argv + ["--public-out", str(pub), "--secret-out", str(sec)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not pub.exists() and not sec.exists()


@pytest.mark.parametrize("strategy", ["exhaustive", "mitm", "divisor"])
def test_cli_bench_rows_come_from_the_original_game_scheme(strategy, capsys):
    n, weights, seed = 10, (1, 4, 7), 9
    argv = ["bench", "-n", str(n), "--h-values", "1,4,7", "--strategy", strategy]
    assert cli.main(argv + ["--seed", str(seed)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    scheme, rng = games.original_game_scheme(n), random.Random(seed)
    attack = getattr(attacks, f"{strategy}_subset_attack")
    want = []
    for h in weights:
        pk, _ = scheme.keygen(rng)
        m = BitVector.from_indices(n, rng.sample(range(n), h))
        report = attack(pk, scheme.encrypt(pk, m, rng))
        regime = attacks.attack_complexity_profile(n, h).regime
        want.append(
            f"{n},{h},{math.comb(n, h)},{report.predicted_bound:.6g},"
            f"{report.subsets_examined},X,{len(report.candidates)},{regime}"
        )

    def masked(row):
        fields = row.split(",")
        fields[5] = "X"  # elapsed_ms
        return ",".join(fields)

    assert [masked(row) for row in rows] == want


# --- each size flag reaches the one function that takes it ------------------------

REFUSED_SIZE_FLAGS = {
    "keygen-modified-modulus-bits": (
        ["keygen", "--scheme", "modified", "-n", "8", "--modulus-bits", "40"], "--modulus-bits"
    ),
    "keygen-modified-max-step": (
        ["keygen", "--scheme", "modified", "-n", "8", "--max-step", "3"], "--max-step"
    ),
    "keygen-modified-allow-overflow": (
        ["keygen", "--scheme", "modified", "-n", "8", "--allow-overflow"], "--allow-overflow"
    ),
    "keygen-original-prime-bits": (
        ["keygen", "--scheme", "original", "-n", "8", "--prime-bits", "3"], "--prime-bits"
    ),
    "keygen-fixed-key-n": (
        ["keygen", "--scheme", "original", "--fixed-key", "PARAMS", "-n", "30"], "-n"
    ),
    "game-completeness-modulus-bits": (
        ["game", "--game", "completeness", "--scheme", "modified", "--trials", "5", "-n", "8",
         "--modulus-bits", "40"],
        "--modulus-bits",
    ),
    "game-distinguisher-prime-bits": (
        ["game", "--game", "distinguisher", "--scheme", "original", "--trials", "3", "-n", "8",
         "--prime-bits", "3"],
        "--prime-bits",
    ),
    "game-malleation-modulus-bits": (
        ["game", "--game", "malleation-case1", "--scheme", "modified", "--trials", "3",
         "-n", "8", "--modulus-bits", "40"],
        "--modulus-bits",
    ),
    "game-fuzzer-modulus-bits": (
        ["game", "--game", "fuzzer", "--scheme", "modified", "--mutations", "6", "-n", "8",
         "--modulus-bits", "40"],
        "--modulus-bits",
    ),
}


def assert_refused(argv, flag, tmp_path, capsys):
    """Exit 1 with one error line that names flag, no stdout, no key file."""
    pub, sec = tmp_path / "k.pub", tmp_path / "k.sec"
    if argv[0] == "keygen":
        argv = argv + ["--public-out", str(pub), "--secret-out", str(sec)]
    assert cli.main(argv + ["--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag} "), err
    assert not pub.exists() and not sec.exists()


@pytest.mark.parametrize("case", sorted(REFUSED_SIZE_FLAGS))
def test_cli_refuses_a_size_flag_the_scheme_or_game_does_not_take(
    case, toy_params_path, tmp_path, capsys
):
    argv, flag = REFUSED_SIZE_FLAGS[case]
    argv = [str(toy_params_path) if a == "PARAMS" else a for a in argv]
    assert_refused(argv, flag, tmp_path, capsys)


@pytest.mark.parametrize("flag", ["--split", "--limit"])
def test_cli_refuses_a_flag_the_chosen_strategy_or_scheme_does_not_take(
    flag, toy_files, tmp_path, capsys
):
    if flag == "--split":  # the default strategy is exhaustive
        argv = ["attack", "--key", str(toy_files[0]), "--ciphertext", "10816 372020"]
        choice = "--strategy exhaustive"
    else:  # a modified-scheme key
        choice = "modified-scheme keys"
        pub, sec = tmp_path / "m.pub", tmp_path / "m.sec"
        keygen = ["keygen", "--scheme", "modified", "-n", "8", "--prime-bits", "7", "--seed", "3"]
        assert cli.main(keygen + ["--public-out", str(pub), "--secret-out", str(sec)]) == 0
        capsys.readouterr()
        assert cli.main(["encrypt", "--key", str(pub), "--message", "77", "--seed", "1"]) == 0
        argv = ["decrypt", "--key", str(sec), "--ciphertext", capsys.readouterr().out.strip()]
    assert cli.main(argv + [flag, "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag} "), err
    assert choice in err, err  # the refusal names what the user chose
    assert not re.search(r"(?<!\w)_\w", err), err  # and no private helper
    assert cli.main(argv) == 0


@pytest.mark.parametrize("max_step", ["0", "-2"])
def test_cli_keygen_refuses_a_max_step_below_one(max_step, tmp_path, capsys):
    argv = ["keygen", "--scheme", "original", "-n", "8", "--max-step", max_step]
    assert_refused(argv, "max_step", tmp_path, capsys)


@pytest.mark.parametrize(
    "game, flag",
    [("fuzzer", "--trials"), ("completeness", "--mutations"), ("malleation-case2", "--mutations")],
)
def test_cli_game_refuses_the_count_flag_it_does_not_read(game, flag, tmp_path, capsys):
    argv = ["game", "--game", game, "--scheme", "modified", "-n", "8", flag, "5"]
    assert_refused(argv, flag, tmp_path, capsys)


def test_cli_game_applies_each_count_default_to_its_own_game(monkeypatch, capsys):
    seen = {}

    def completeness(scheme, trials, rng):
        seen["trials"] = trials
        return games.CompletenessReport(trials, trials, 0, 0)

    def fuzzer(mutations, rng, *, n=16, prime_bits=8):
        seen["mutations"] = mutations
        return games.FuzzReport(mutations, mutations, 0, (), (), False)

    monkeypatch.setattr(games, "run_completeness_trials", completeness)
    monkeypatch.setattr(games, "mutation_fuzzer", fuzzer)
    assert cli.main(["game", "--game", "completeness", "--scheme", "original"]) == 0
    assert cli.main(["game", "--game", "fuzzer", "--scheme", "modified"]) == 0
    assert seen == {"trials": 1000, "mutations": 10000}


def game_row(scheme, adversary, trials, wins, rejections):
    return f"{scheme},{adversary},{trials},{wins},{abs(wins / trials - 0.5):.6f},{rejections}"


def library_game_lines(game, scheme_name, count, rng):
    """What `knaplab game` should print, from library calls at the builders' defaults."""
    if game == "completeness":
        rep = games.run_completeness_trials(games.GAME_SCHEMES[scheme_name](), count, rng)
        row = f"{scheme_name},completeness,{count},{rep.unique},{rep.ambiguous},{rep.failed}"
        return [cli.COMPLETENESS_HEADER, row]
    if game == "fuzzer":
        rep = games.mutation_fuzzer(count, rng)
        return [
            cli.GAME_HEADER,
            game_row(scheme_name, "mutation-fuzzer", count, rep.acceptances, rep.rejections),
            *(f"kind,{kind},{tried},{accepted}" for kind, tried, accepted in rep.by_kind),
            *(
                f"finding,index={f.index},kind={f.kind},keypair_seed={f.keypair_seed},"
                f"decrypted={f.decrypted}"
                for f in rep.findings
            ),
        ]
    if game.startswith("malleation-"):
        res = games.run_malleation_trials(game.removeprefix("malleation-"), count, rng)
        return [
            cli.GAME_HEADER,
            game_row(scheme_name, game, count, res.wins, res.rejections),
            *(
                f"finding,trial={f.trial},seed={f.seed},decrypted={f.decrypted}"
                for f in res.findings
            ),
        ]
    scheme = games.GAME_SCHEMES[scheme_name]()
    adversary = getattr(games, f"{game.replace('-', '_')}_adversary")(scheme)
    res = games.run_ind_cca2(scheme, adversary, count, rng)
    row = game_row(scheme_name, adversary.name, count, res.wins, res.rejections)
    return [cli.GAME_HEADER, row]


@pytest.mark.parametrize(
    "game, scheme",
    [
        ("distinguisher", "original"),
        ("random-guess", "modified"),
        ("completeness", "original"),
        ("malleation-case1", "modified"),
        ("malleation-case2", "modified"),
        ("fuzzer", "modified"),
    ],
)
def test_cli_game_without_size_flags_runs_at_the_builders_defaults(game, scheme, capsys):
    count_flag, count = ("--mutations", 7) if game == "fuzzer" else ("--trials", 2)
    argv = ["game", "--game", game, "--scheme", scheme, count_flag, str(count), "--seed", "5"]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    assert got == library_game_lines(game, scheme, count, random.Random(5))


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


CLI_OWNED_FLAGS = {
    "help", "key", "ciphertext", "message", "seed", "scheme", "game", "strategy", "public_out",
    "secret_out", "fixed_key", "h_values", "trials", "mutations",
}
# the library functions each subcommand passes its other flags to
ROUTES = {
    "keygen": (
        *games.GAME_SCHEMES.values(),
        *(scheme.keypair_from_params for scheme in schemes.SCHEMES.values()),
    ),
    "encrypt": (),
    "decrypt": tuple(scheme.decrypt_all for scheme in schemes.SCHEMES.values()),
    "attack": tuple(cli.STRATEGIES.values()),
    "audit": (akleylek.completeness_audit,),
    "game": (*games.GAME_SCHEMES.values(), games.run_malleation_trials, games.mutation_fuzzer),
    "bench": (games.original_game_scheme,),
}


@pytest.mark.parametrize("command", sorted(ROUTES))
def test_every_size_flag_defaults_to_none_and_is_a_library_parameter(command):
    # a default restated in the parser, or a library parameter renamed away
    # from its flag, would let the CLI and the library disagree on a value
    subparsers = _subparsers(cli.build_parser())
    assert set(ROUTES) == set(subparsers)
    params = set().union(*(inspect.signature(fn).parameters for fn in ROUTES[command]))
    sub = subparsers[command]
    assert not set(cli.ROUTED_FLAGS) & set(sub._defaults)
    for action in sub._actions:
        if action.dest in CLI_OWNED_FLAGS:
            continue
        flag = "/".join(action.option_strings)
        assert action.dest in cli.ROUTED_FLAGS, flag
        assert action.default is None, flag
        assert action.dest in params, flag


# --- key-file roles --------------------------------------------------------------


@pytest.fixture
def bad_group_key_files(tmp_path):
    """Modified public and secret key files whose q is composite."""
    pub_text, sec_text = tiny_modified_key_texts(*BAD_GROUPS["q-composite"])
    pub, sec = tmp_path / "bad.pub", tmp_path / "bad.sec"
    pub.write_text(pub_text)
    sec.write_text(sec_text)
    return str(pub), str(sec)


def test_wrong_role_files_are_refused_before_their_material_is_checked(
    bad_group_key_files, tmp_path, capsys
):
    pub, sec = bad_group_key_files
    outs = str(tmp_path / "x.pub"), str(tmp_path / "x.sec")
    commands = [
        ["decrypt", "--key", pub, "--ciphertext", "1 2 3"],
        ["encrypt", "--key", sec, "--message", "5"],
        ["attack", "--key", sec, "--ciphertext", "1 2 3"],
    ] + [
        ["keygen", "--scheme", "modified", "--fixed-key", key, "--public-out", outs[0],
         "--secret-out", outs[1]]
        for key in (pub, sec)
    ]
    for argv in commands:
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "refusing" in err, argv
        assert "invalid key material" not in err, argv
    with pytest.raises(KeyFileError, match="refusing"):
        keyfile.load_key(pub, "secret")
    with pytest.raises(KeyFileError, match="refusing"):
        keyfile.load_key(sec, "public")
    with pytest.raises(KeyFileError, match="invalid key material"):
        keyfile.load_key(pub, "public")


def test_a_modified_public_key_no_secret_key_matches_is_refused_at_encryption():
    pub = keyfile.parse_key(OVERSIZED_N_PUBLIC_KEY, "public")
    assert (pub.n, pub.p) == (4, 23)
    with pytest.raises(ParameterError, match="n must stay below bitlen"):
        modified.encrypt(pub, 5, random.Random(0))


@pytest.mark.parametrize("obj", [object(), BitVector((1, 0)), games.ExperimentResult(1, 1)])
def test_serializers_refuse_an_object_of_no_scheme(obj):
    with pytest.raises(KeyFileError, match="cannot serialize"):
        keyfile.serialize_key(obj)
    with pytest.raises(KeyFileError, match="cannot serialize"):
        keyfile.ciphertext_to_text(obj)


def test_cli_bench_without_h_values_sweeps_every_weight_below_n(capsys):
    assert cli.main(["bench", "-n", "6", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.BENCH_HEADER + ",regime"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [1, 2, 3, 4, 5]
