"""The ElGamal disguise both ciphers put over their secret knapsack sequence.

A secret sequence t_1..t_n is published as the pairs (s, u_i) with s = g^k
and u_i = y^k * t_i (mod p), where y = g^x (ElGamal, IEEE Trans. IT 1985).
A receiver who knows x strips the mask from a ciphertext pair (C1, C) as
C * (C1^x)^(-1) mod p, or, once C1 = s^h is known, as C * (y^k)^(-h) mod p;
outsiders face a subset problem over the u_i.

The ciphers subclass these keys under their own names, adding only their
secret sequence and their own checks; key files and the schemes module
dispatch on those exact classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedCiphertext, ParameterError
from .numtheory import SafePrimeGroup, gcd, mod_inv


@dataclass(frozen=True)
class DisguisedPublicKey:
    n: int
    p: int
    s: tuple[int, ...]
    u: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        object.__setattr__(self, "u", tuple(self.u))
        if self.n < 1 or len(self.s) != self.n or len(self.u) != self.n:
            raise ParameterError("component count does not match n")
        if len(set(self.s)) != 1:
            raise ParameterError("all s components must be equal")
        for v in (*self.s, *self.u):
            if not 1 <= v < self.p:
                raise ParameterError("key components must lie in [1, p)")

    @property
    def s_value(self) -> int:
        return self.s[0]


@dataclass(frozen=True)
class DisguisedSecretKey:
    p: int
    g: int
    y: int
    x: int
    k: int
    # Derived once at construction; left out of equality, repr and the key file.
    s_value: int = field(init=False, repr=False, compare=False)  # g^k, every public s_i
    mask: int = field(init=False, repr=False, compare=False)  # y^k, which masks every u_i
    # mask^(-1) mod p, None when it does not exist (only a composite p allows that)
    mask_inverse: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.x <= self.p - 2 or not 1 <= self.k <= self.p - 2:
            raise ParameterError("exponents must lie in [1, p-2]")
        if self.y != pow(self.g, self.x, self.p):
            raise ParameterError("y is not g^x mod p")
        object.__setattr__(self, "s_value", pow(self.g, self.k, self.p))
        object.__setattr__(self, "mask", pow(self.y, self.k, self.p))
        inverse = mod_inv(self.mask, self.p) if gcd(self.mask, self.p) == 1 else None
        object.__setattr__(self, "mask_inverse", inverse)

    def unmask(self, c1: int, c: int) -> int:
        """C * (C1^x)^(-1) mod p: the masked subset product behind (C1, C)."""
        return self._strip(pow(c1, self.x, self.p), c)

    def unmask_weight(self, h: int, c: int) -> int:
        """C * (mask^h)^(-1) mod p, which is unmask(s^h, C) without raising to x.

        (g^k)^(xh) = (g^x)^(kh) holds modulo any p, so this equals unmask
        whenever C1 = s^h, and fails the same way.  With the mask's inverse
        cached it is one pow, since (mask^h)^(-1) = (mask^(-1))^h.
        """
        if self.mask_inverse is None:
            return self._strip(pow(self.mask, h, self.p), c)
        return c * pow(self.mask_inverse, h, self.p) % self.p

    def _strip(self, factor: int, c: int) -> int:
        if factor == 0:
            raise MalformedCiphertext("C1 shares a factor with the modulus")
        return c * mod_inv(factor, self.p) % self.p


def assemble(public_cls, secret_cls, group: SafePrimeGroup, x: int, k: int, seq):
    """Both keys disguising seq over an already-certified group.

    seq is the secret sequence, passed to secret_cls after (p, g, y, x, k).
    """
    p, g = group.p, group.g
    sec = secret_cls(p, g, pow(g, x, p), x, k, seq)
    if any(t % p == 0 for t in seq):
        raise ParameterError("sequence terms must be nonzero mod p")
    u = tuple(sec.mask * t % p for t in seq)
    return public_cls(n=seq.n, p=p, s=(sec.s_value,) * seq.n, u=u), sec
