"""Flat text formats for keys, key parameters, and ciphertexts.

Key files are line-oriented ``name=value`` with integer values in lowercase
hex and sequences as comma-separated hex, so fixtures diff cleanly and
round-trip bit-exactly.  Ciphertexts travel as whitespace-separated decimal
integers (two components for the original scheme, three for the modified
one), matching what the worked key prints by hand.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from dataclasses import fields as dataclass_fields

from .errors import MalformedCiphertext
from .numtheory import SafePrimeGroup
from .schemes import SCHEMES, Scheme

FORMAT_VERSION = 1


class KeyFileError(ValueError):
    """File is not a well-formed key file of the expected kind."""


@dataclass(frozen=True)
class KeyParams:
    """Fixed key-generation inputs, as carried by a role=params file."""

    scheme: str
    p: int
    g: int
    x: int
    k: int
    terms: tuple[int, ...]  # sequence terms (original) or primes (modified)


def _hex(v: int) -> str:
    return format(v, "x")


def _hex_seq(vals) -> str:
    return ",".join(_hex(v) for v in vals)


def _emit(scheme: str, role: str, fields: list[tuple[str, str]]) -> str:
    lines = [f"version={FORMAT_VERSION}", f"scheme={scheme}", f"role={role}"]
    lines += [f"{name}={value}" for name, value in fields]
    return "\n".join(lines) + "\n"


def serialize_key(key) -> str:
    for scheme in SCHEMES.values():
        if type(key) is scheme.public_key:
            role, tail = "public", [("s", _hex_seq(key.s)), ("u", _hex_seq(key.u))]
        elif type(key) is scheme.secret_key:
            role = "secret"
            tail = [(name, _hex(getattr(key, name))) for name in ("g", "y", "x", "k")]
            tail.append((scheme.sequence_field, _hex_seq(getattr(key, scheme.sequence_field))))
        else:
            continue
        return _emit(scheme.name, role, [("n", _hex(key.n)), ("p", _hex(key.p)), *tail])
    raise KeyFileError(f"cannot serialize {type(key).__name__}")


def _parse_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KeyFileError(f"line {lineno}: expected name=value, got {raw!r}")
        name, _, value = line.partition("=")
        name, value = name.strip(), value.strip()
        if name in fields:
            raise KeyFileError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = value
    return fields


def _take(fields: dict[str, str], name: str) -> str:
    if name not in fields:
        raise KeyFileError(f"missing field {name!r}")
    return fields.pop(name)


def _int(fields: dict[str, str], name: str) -> int:
    value = _take(fields, name)
    try:
        return int(value, 16)
    except ValueError:
        raise KeyFileError(f"field {name!r} is not hex: {value!r}") from None


def _seq(fields: dict[str, str], name: str) -> tuple[int, ...]:
    value = _take(fields, name)
    try:
        return tuple(int(part, 16) for part in value.split(","))
    except ValueError:
        raise KeyFileError(f"field {name!r} is not a hex list: {value!r}") from None


def parse_key(text: str, role: str | None = None):
    """Parse a key file into the matching key dataclass (or KeyParams).

    Given a role ("public", "secret" or "params"), a file of any other role
    is refused right after its header, before any key material is built.
    """
    fields = _parse_fields(text)
    version = _take(fields, "version")
    if version != str(FORMAT_VERSION):
        raise KeyFileError(f"unsupported format version {version!r}")
    scheme = _take(fields, "scheme")
    found = _take(fields, "role")
    if role is not None and found != role:
        raise KeyFileError(f"refusing a role={found} file where role={role} is expected")
    if scheme not in SCHEMES:
        raise KeyFileError(f"unknown scheme {scheme!r}")
    try:
        key = _build(SCHEMES[scheme], found, fields)
    except ValueError as exc:
        if isinstance(exc, KeyFileError):
            raise
        raise KeyFileError(f"invalid key material: {exc}") from exc
    if fields:
        raise KeyFileError(f"unexpected fields: {sorted(fields)}")
    return key


def _build(scheme: Scheme, role: str, fields: dict[str, str]):
    """The key or parameters a file describes: the trust boundary for key material.

    A scheme that certifies its group does so here, once per key, through
    the generator the key is built on: g for a secret key, and s = g^k for a
    public one (k is coprime to p - 1, so s generates the group too).
    """
    if role == "public":
        n = _int(fields, "n")
        p = _int(fields, "p")
        s = _seq(fields, "s")
        u = _seq(fields, "u")
        key = scheme.public_key(n=n, p=p, s=s, u=u)
        generator = key.s_value
    elif role == "secret":
        n = _int(fields, "n")
        p = _int(fields, "p")
        g = _int(fields, "g")
        y = _int(fields, "y")
        x = _int(fields, "x")
        k = _int(fields, "k")
        terms = _seq(fields, scheme.sequence_field)
        if len(terms) != n:
            raise KeyFileError("sequence length does not match n")
        seq = {scheme.sequence_field: scheme.sequence(terms)}
        key = scheme.secret_key(p=p, g=g, y=y, x=x, k=k, **seq)
        generator = g
    elif role == "params":
        terms = _seq(fields, scheme.sequence_field)
        return KeyParams(
            scheme=scheme.name,
            p=_int(fields, "p"),
            g=_int(fields, "g"),
            x=_int(fields, "x"),
            k=_int(fields, "k"),
            terms=terms,
        )
    else:
        raise KeyFileError(f"unknown role {role!r}")
    if scheme.certifies_group:
        SafePrimeGroup(key.p, generator)
    return key


def save_key(path, key) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_key(key))


def load_key(path, role: str | None = None):
    with open(path, "r", encoding="ascii") as fh:
        return parse_key(fh.read(), role)


_CIPHERTEXTS = {
    len(dataclass_fields(scheme.ciphertext)): scheme.ciphertext for scheme in SCHEMES.values()
}


# Conversions between int and decimal text shorter than 640 digits are never
# refused by CPython's int/str digit limit (4300 digits by default), so big
# values are converted in pieces of at most this many digits.
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def _to_decimal(v: int) -> str:
    """str(v) for any size of v >= 0."""
    if v < _PIECE:
        return str(v)
    width = v.bit_length() * 3 // 20  # about half of v's digits (log10 2 > 0.3)
    high, low = divmod(v, 10**width)
    return _to_decimal(high) + _to_decimal(low).zfill(width)


def _from_decimal(token: str) -> int:
    """int(token) for a token of any length; beyond one piece, ASCII digits only."""
    if len(token) <= _PIECE_DIGITS:
        return int(token)
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal integer: {token[:20]}...")
    width = len(token) // 2
    return _from_decimal(token[:-width]) * 10**width + _from_decimal(token[-width:])


def ciphertext_to_text(ct) -> str:
    if type(ct) not in _CIPHERTEXTS.values():
        raise KeyFileError(f"cannot serialize {type(ct).__name__}")
    return " ".join(_to_decimal(v) for v in astuple(ct))


def ciphertext_from_text(text: str):
    """Two decimal tokens parse as an original ciphertext, three as a modified one."""
    tokens = text.split()
    try:
        values = [_from_decimal(tok) for tok in tokens]
    except ValueError:
        raise KeyFileError(f"ciphertext tokens must be decimal integers: {text!r}") from None
    if len(values) not in _CIPHERTEXTS:
        raise KeyFileError(f"expected 2 or 3 ciphertext components, got {len(values)}")
    try:
        return _CIPHERTEXTS[len(values)](*values)
    except MalformedCiphertext as exc:
        raise KeyFileError(str(exc)) from None
