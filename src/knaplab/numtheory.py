"""Exact big-integer number theory shared by both ciphers and the attacks.

Everything here is arbitrary precision and side-effect free; randomized
operations take an explicit ``random.Random`` so callers control seeding,
and every prime is certified by ``is_prime``, which draws nothing.
The subset solvers, as used: the divisor walk decodes the original cipher
for its receiver and attacks it from the public key, the divisibility test
over pairwise-coprime primes decodes the hardened cipher, and the greedy
super-increasing subset sum is reached only by tests.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from dataclasses import dataclass
from functools import cache, lru_cache
from math import gcd, prod

from .errors import ParameterError

__all__ = [
    "BitVector",
    "SuperIncreasingSeq",
    "PrimeSequence",
    "SafePrimeGroup",
    "mod_inv",
    "gcd",
    "is_probable_prime",
    "is_prime",
    "is_safe_prime",
    "gen_safe_prime",
    "gen_prime_sequence",
    "gen_superincreasing",
    "solve_superincreasing_subset_sum",
    "solve_coprime_subset_product",
    "least_products",
    "divisor_subsets",
    "binomial",
    "binary_entropy",
    "entropy_bound",
    "power_index",
]


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return list(itertools.compress(range(limit), flags))


_TRIAL_PRIMES = frozenset(_sieve(1000))
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)  # n has a factor below 1000 iff gcd(n, this) != 1
_TRIAL_LIMIT = 1000 * 1000  # below this, trial division is exact
MAX_WALK_NODES = 1 << 22  # divisor walk cap: index subsets entered, so never hit at n <= 22


@dataclass(frozen=True, order=True)
class BitVector:
    """An ordered 0/1 vector; position j holds the bit the math indexes as j+1."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) < 1:
            raise ValueError("bit vector must be non-empty")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bit vector entries must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        """Big-endian: the first bit is the 2^(n-1) digit of ``value``."""
        if value < 0 or value >= 1 << n:
            raise ValueError(f"{value} does not fit in {n} bits")
        return cls(tuple((value >> (n - 1 - j)) & 1 for j in range(n)))

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        bits = [0] * n
        for j in indices:
            bits[j] = 1
        return cls(tuple(bits))

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def as_int(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class SuperIncreasingSeq:
    """Positive integers where every term exceeds the sum of all earlier ones."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise ValueError("sequence must be non-empty")
        total = 0
        for i, t in enumerate(self.terms):
            if t < 1:
                raise ValueError(f"term {i + 1} is not positive")
            if t <= total:
                raise ValueError(f"term {i + 1} does not exceed the sum of earlier terms")
            total += t

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def total(self) -> int:
        return sum(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


@dataclass(frozen=True)
class PrimeSequence:
    """Distinct primes; pairwise coprimality makes the subset product easy."""

    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        if len(self.primes) < 1:
            raise ValueError("prime sequence must be non-empty")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be pairwise distinct")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def product(self) -> int:
        return prod(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)


@dataclass(frozen=True)
class SafePrimeGroup:
    """p = 2q + 1 with q prime, and g generating all of Z_p^*; p fixes q.

    Constructing one certifies the group deterministically: ``is_prime`` on q
    and a Pocklington proof of p (see ``is_safe_prime``).  Keys built from a group, or parsed through
    one, need no further primality test.

    An element of order dividing 2q that is neither a square root of 1 nor a
    q-th root of 1 must have full order 2q, so two exponentiations certify g.
    """

    p: int
    g: int

    @property
    def q(self) -> int:
        return (self.p - 1) // 2

    def __post_init__(self):
        if not is_safe_prime(self.p):
            raise ValueError("p must be a safe prime")
        if not 1 < self.g < self.p:
            raise ValueError("generator out of range")
        if pow(self.g, 2, self.p) == 1 or pow(self.g, self.q, self.p) == 1:
            raise ValueError("g does not generate the full group")


def mod_inv(a: int, modulus: int) -> int:
    """The w with a*w = 1 (mod modulus); raises if no inverse exists."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {modulus}") from None


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller-Rabin: False is certain, True errs with probability <= 4**-rounds.

    Exact (trial division) below 10^6.  Round 1 is base 2; later bases come
    from ``rng``, else the global ``random``.  The library runs it only with
    one round, the base-2 round, in the safe-prime search's screen and in
    ``is_prime``.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 2:
        return False
    if gcd(n, _TRIAL_PRODUCT) != 1:
        return n in _TRIAL_PRIMES
    if n < _TRIAL_LIMIT:
        return True
    draw = rng.randrange if rng is not None else random.randrange
    return _strong_round(n, 2) and all(
        _strong_round(n, draw(2, n - 1)) for _ in range(rounds - 1)
    )


def _strong_round(n: int, a: int) -> bool:
    """One Miller-Rabin round: whether the odd n > 2 is a strong probable prime to base a."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    x = pow(a, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test on odd n > 2 with Selfridge's method A parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi (D/n) = -1, P = 1 and
    Q = (1 - D)/4; with n + 1 = d*2^s, n passes iff U_d = 0 or V_(d*2^r) = 0
    for some 0 <= r < s (mod n).  A perfect square has no such D, so it is
    rejected before the search.  The ladder carries (V_k, V_(k+1), Q^k) over
    the bits of d, and U_d = 0 is tested as 2*V_(d+1) = V_d: D*U_k =
    2*V_(k+1) - V_k, and (D/n) = -1 makes D invertible mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s with d odd
    V, W, Qk = 2, 1, 1  # V_0, V_1 and Q^0 with P = 1
    for bit in bin((n + 1) >> s)[2:]:
        if bit == "1":  # k -> 2k + 1
            V, W, Qk = (V * W - Qk) % n, (W * W - 2 * Q * Qk) % n, Qk * Qk * Q % n
        else:  # k -> 2k
            V, W, Qk = (V * V - 2 * Qk) % n, (V * W - Qk) % n, Qk * Qk % n
    if (2 * W - V) % n == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime: exact below 10^6, Baillie-PSW above.

    Below 10^6 trial division decides n.  Above it n gets the Baillie-PSW
    test (Baillie & Wagstaff, *Math. Comp.* 1980; Pomerance, Selfridge &
    Wagstaff, *Math. Comp.* 1980): one base-2 Miller-Rabin round, then a
    strong Lucas test.  No composite is known to pass it, and it is exact
    below 2^64, where it has been checked against Feitsma and Galway's list
    of base-2 pseudoprimes.  It draws no random numbers.
    """
    if n < _TRIAL_LIMIT:
        return is_probable_prime(n)
    # a single round is the base-2 round, which draws nothing from any rng
    return is_probable_prime(n, 1) and _is_strong_lucas_probable_prime(n)


def is_safe_prime(p: int) -> bool:
    """Whether p = 2q + 1 with q and p prime, q by ``is_prime`` and p by proof.

    p is proven by Pocklington's criterion (Crandall & Pomerance,
    *Prime Numbers*, Thm 4.1.3): the prime q divides p - 1 and exceeds
    sqrt(p) - 1, so the witness 2 proves p prime when 2^(p-1) = 1 (mod p)
    and gcd(2^2 - 1, p) = 1, i.e. 3 does not divide p.  Every safe prime
    passes both, so given q the answer for p is exact.
    """
    q = (p - 1) // 2
    if p != 2 * q + 1 or not is_prime(q):
        return False
    return p % 3 != 0 and pow(2, p - 1, p) == 1


def _find_generator(p: int, q: int, rng: random.Random) -> int:
    while True:
        g = rng.randrange(2, p - 1)
        if pow(g, 2, p) != 1 and pow(g, q, p) != 1:
            return g


_WINDOW = 4096
_ZEROS = memoryview(bytes(_WINDOW))
_SLICE_BITS = 13  # sieve primes below 2^13 always strike, by slices
_DEEP_BITS = 16  # the deeper ones, up to 2^16, strike by position once q > 2^16


@cache
def _sieve_table() -> tuple[array, array, array, int]:
    """Columns sp, 1/6 and -1/12 mod sp over the primes 5 <= sp < 2^16; how many are < 2^13.

    Built on first use.  2 and 3 are skipped: the q = 5 (mod 6) wheel already
    excludes their multiples.  A window step of -1/12 moves q by -1/2, from a
    q-line hit (q = 0) to a 2q+1-line hit (q = -1/2).
    """
    primes = array("H", _sieve(1 << _DEEP_BITS)[2:])
    inv6 = array("H", (pow(6, -1, sp) for sp in primes))
    step = array("H", (-pow(12, -1, sp) % sp for sp in primes))
    return primes, inv6, step, len(_sieve(1 << _SLICE_BITS)) - 2


def _window_survivors(base: int, deep: bool) -> list[int]:
    """The q = base + 6j, 0 <= j < _WINDOW, that no sieve prime strikes.

    A sieve prime strikes every q on the q line (sp divides q) and on the
    2q+1 line (sp divides 2q + 1).  The primes below 2^13 always strike;
    with ``deep``, so do the primes in (2^13, 2^16).  Each of those exceeds
    the window, so it strikes at most one q on each line.
    """
    primes, inv6, step, shallow = _sieve_table()
    rows = zip(primes, inv6, step)
    alive = bytearray(b"\x01") * _WINDOW
    for sp, inv, st in itertools.islice(rows, shallow):
        j = -(base % sp) * inv % sp  # q-line hits
        alive[j::sp] = _ZEROS[: (_WINDOW - 1 - j) // sp + 1]
        j = (j + st) % sp  # 2q+1-line hits
        alive[j::sp] = _ZEROS[: (_WINDOW - 1 - j) // sp + 1]
    if deep:
        for sp, inv, st in rows:  # the rest of the table, from the first prime above 2^13
            if (j := -(base % sp) * inv % sp) < _WINDOW:
                alive[j] = 0
            if (j := (j + st) % sp) < _WINDOW:
                alive[j] = 0
    return [base + 6 * j for j in itertools.compress(range(_WINDOW), alive)]


def _screened_group(q: int, rng: random.Random) -> SafePrimeGroup | None:
    """The group on p = 2q + 1, or None if its screen or certification fails.

    The screen is the base-2 round on q, then on p, which draws nothing;
    a survivor draws its generator and SafePrimeGroup certifies it.
    """
    p = 2 * q + 1
    if not (is_probable_prime(q, 1) and is_probable_prime(p, 1)):
        return None
    try:
        return SafePrimeGroup(p, _find_generator(p, q, rng))
    except ValueError:
        return None


def gen_safe_prime(bit_length: int, rng: random.Random) -> SafePrimeGroup:
    """Random safe-prime group with p of exactly ``bit_length`` bits.

    Candidates q are stepped along the q = 5 (mod 6) wheel (forced for any
    safe prime above 7) and a window of them is sieved jointly on the q and
    2q+1 lines before Miller-Rabin, which keeps generation fast enough to do
    per-trial key generation in the experiment harnesses.  Once every q
    exceeds 2^16, both lines are sieved deeper, by the primes up to 2^16
    (Wiener, "Safe prime generation with a combined sieve", ePrint 2003/186).
    The search draws from rng only each window's base (for p of at most 16
    bits, each candidate) and the generator, so the sieve changes how fast
    a group is found, never which.  Each sieve survivor is screened by the
    base-2 round on q and p, and only the SafePrimeGroup constructor
    certifies (``is_prime`` on q, a Pocklington proof of p; see
    ``is_safe_prime``).
    """
    if bit_length < 4:
        raise ValueError("bit_length must be >= 4")
    qbits = bit_length - 1
    if bit_length <= 16:
        # tiny groups: plain rejection sampling, the window would overshoot
        while True:
            q = rng.randrange(1 << (qbits - 1), 1 << qbits) | 1
            if q % 6 == 5 and (group := _screened_group(q, rng)) is not None:
                return group
    # below 2^16 a deep prime could strike a prime q: itself
    deep = qbits > _DEEP_BITS
    while True:
        base = rng.randrange(1 << (qbits - 1), (1 << qbits) - 6 * _WINDOW)
        base += (5 - base) % 6
        for q in _window_survivors(base, deep):
            if (group := _screened_group(q, rng)) is not None:
                return group


@lru_cache(maxsize=8)
def _primes_with_bits(bits: int) -> tuple[int, ...]:
    return tuple(p for p in _sieve(1 << bits) if p.bit_length() == bits)


def gen_prime_sequence(n: int, bits_each: int, rng: random.Random) -> PrimeSequence:
    """n distinct primes of exactly ``bits_each`` bits.

    Refuses (rather than spinning forever) when fewer than n primes of that
    size exist; the count is exact for sizes small enough to sieve.  Above
    20 bits each drawn candidate is screened by the base-2 round alone and
    the PrimeSequence certifies it, so each prime is certified once; should
    a base-2 pseudoprime pass the screen, the search keeps the members that
    pass ``is_prime`` and draws on.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if bits_each < 2:
        raise ValueError("no primes below 2 bits")
    if bits_each <= 20:
        population = _primes_with_bits(bits_each)
        if n > len(population):
            raise ValueError(
                f"only {len(population)} primes have {bits_each} bits, cannot pick {n}"
            )
        return PrimeSequence(tuple(rng.sample(population, n)))
    picked: list[int] = []
    attempts = 0
    while True:
        while len(picked) < n:
            attempts += 1
            if attempts > 10000 * n:
                raise ValueError(f"could not find {n} distinct {bits_each}-bit primes")
            c = rng.randrange(1 << (bits_each - 1), 1 << bits_each) | 1
            if c not in picked and is_probable_prime(c, 1):
                picked.append(c)
        try:
            return PrimeSequence(tuple(picked))
        except ValueError:  # a base-2 pseudoprime passed the screen
            picked = [c for c in picked if is_prime(c)]


def gen_superincreasing(n: int, rng: random.Random, max_step: int = 10) -> SuperIncreasingSeq:
    """Random super-increasing sequence; each term beats the running sum by <= max_step."""
    if n < 1:
        raise ValueError("need n >= 1")
    if max_step < 1:
        raise ValueError("max_step must be >= 1")
    terms = []
    total = 0
    for _ in range(n):
        t = total + rng.randint(1, max_step)
        terms.append(t)
        total += t
    return SuperIncreasingSeq(tuple(terms))


def solve_superincreasing_subset_sum(seq: SuperIncreasingSeq, s: int) -> BitVector | None:
    """Greedy largest-first solver; None when no subset sums to s.

    Walks the terms from last to first, taking a term whenever it still fits.
    Super-increase makes the take forced, so the indicator found is the
    unique solution whenever one exists.
    """
    if s < 0:
        raise ValueError("target must be non-negative")
    bits = [0] * seq.n
    remaining = s
    for i in range(seq.n - 1, -1, -1):
        if remaining >= seq.terms[i]:
            bits[i] = 1
            remaining -= seq.terms[i]
    if remaining != 0:
        return None
    return BitVector(tuple(bits))


def solve_coprime_subset_product(seq: PrimeSequence, d: int) -> tuple[BitVector, bool]:
    """Divisibility solver: bit i is set iff primes[i] divides d.

    The second value reports whether the selected primes multiply to exactly
    d; False means d carries factors from outside the sequence (callers
    auditing hostile inputs need to see that rather than an exception).
    """
    if d < 1:
        raise ValueError("target must be positive")
    bits = tuple(1 if d % pi == 0 else 0 for pi in seq.primes)
    exact = prod(pi for pi, b in zip(seq.primes, bits) if b) == d
    return BitVector(bits), exact


def least_products(terms, h: int) -> list:
    """least[k][j] = terms[j] * ... * terms[j+k-1], for k <= h.

    Over ascending terms that is the least product of k terms from j on.
    """
    least = [[], terms]
    for k in range(2, h + 1):
        least.append([a * b for a, b in zip(terms, least[-1][1:])])
    return least


def divisor_subsets(terms, target: int, h: int) -> tuple[list[tuple[int, ...]], int]:
    """(every weight-h index subset of the positive terms with product target, nodes).

    Only terms dividing target can be in a match.  The walk takes them in
    ascending order, carries the exact quotient target / P, drops a branch
    on a nonzero remainder, and ends a loop at the first term whose
    smallest completion exceeds the quotient.  The last term is the
    quotient, looked up by value; equal terms each give a match.  nodes
    counts the prefixes entered, distinct index subsets, so at most
    2^len(terms); past MAX_WALK_NODES the walk refuses with ParameterError.
    """
    index = sorted((i for i, t in enumerate(terms) if not target % t), key=terms.__getitem__)
    kept = [terms[i] for i in index]
    least = least_products(kept, h)
    at: dict[int, list[int]] = {}  # each kept value's positions in kept
    for j, t in enumerate(kept):
        at.setdefault(t, []).append(j)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def walk(first: int, left: int, chosen: tuple[int, ...], quotient: int):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_WALK_NODES:
            raise ParameterError(f"the divisor walk passed its cap of {MAX_WALK_NODES} nodes")
        if left == 1:  # the last term is the quotient itself
            for j in at.get(quotient, ()):
                if j >= first:
                    found.append((*chosen, index[j]))
            return
        if not left:  # weight 0: the empty subset, whose product is 1
            if quotient == 1:
                found.append(chosen)
            return
        smallest = least[left]
        for j in range(first, len(kept) - left + 1):
            if smallest[j] > quotient:
                break  # terms ascend, so every later branch overshoots too
            rest, remainder = divmod(quotient, kept[j])
            if not remainder:
                walk(j + 1, left - 1, (*chosen, index[j]), rest)

    walk(0, h, (), target)
    return found, nodes


def binomial(n: int, h: int) -> int:
    """Exact n choose h."""
    if n < 0 or h < 0 or h > n:
        raise ValueError(f"need 0 <= h <= n, got n={n}, h={h}")
    return math.comb(n, h)


def binary_entropy(lam: float) -> float:
    """H(lam) in bits, with H(0) = H(1) = 0."""
    if lam < 0 or lam > 1:
        raise ValueError(f"entropy argument must lie in [0, 1], got {lam}")
    if lam == 0 or lam == 1:
        return 0.0
    return -lam * math.log2(lam) - (1 - lam) * math.log2(1 - lam)


def entropy_bound(n: int, h: int) -> float:
    """2^(n*H(h/n)): the entropy upper bound on n choose h."""
    if n < 0 or h < 0 or h > n:
        raise ValueError(f"need 0 <= h <= n, got n={n}, h={h}")
    if n == 0:
        return 1.0
    return 2.0 ** (n * binary_entropy(h / n))


def power_index(base: int, target: int, max_exp: int) -> int | None:
    """Smallest e in [0, max_exp] with base**e == target over the integers."""
    if base < 2:
        raise ValueError("base must be >= 2")
    value = 1
    for e in range(max_exp + 1):
        if value == target:
            return e
        if value > target:
            return None
        value *= base
    return None
