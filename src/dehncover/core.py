"""
Exact arithmetic on Seifert invariants, lens spaces and 2-orbifolds.

Everything in this module is integer / rational arithmetic (no floats).
Manifolds are compared up to orientation-reversing homeomorphism throughout:
a Seifert fibered space and its mirror count as the same unoriented manifold,
and lens spaces are classified by q up to +-q^{+-1} mod p.

Slope and TorusKnot are tuple subclasses (namedtuples), because every slope
scan keys its caches on them: hashing and equality then run in C.  The Euler
number is kept in integers as well: euler_pair gives (num, den) with
e = -num/den and den the product of the fiber orders, and h1_order,
euler_number and the fiberwise lift all read that one formula; only
euler_number builds a Fraction, and it imports fractions when called.  The
one float rule here is _check_tolerance (finite and >= 0): the audit's volume
tolerance, kept here so that the CLI checks --tolerance for every command
without importing hyperbolic.
"""
from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from math import gcd, isfinite, isqrt, lcm


class LensRegimeError(ValueError):
    """Raised when an operation needs >= 3 exceptional fibers but got fewer."""


def _check_tolerance(tol: float) -> None:
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


# ---------------------------------------------------------------------------
# Domain types


class Slope(namedtuple("Slope", ("p", "q"))):
    """A surgery slope p/q in the homological framing.

    Normalised so that q >= 1, except the infinity slope which is stored as
    (1, 0).  p/q and (-p)/(-q) are the same slope.

    An immutable tuple (p, q), so hashing, equality and ordering run in C and
    hash(Slope(p, q)) == hash((p, q)).  Two consequences of the tuple base:
    a Slope compares equal to the plain tuple (p, q), and the inherited
    _make and _replace skip the normalisation (nothing in the package calls
    them).
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if gcd(p, q) != 1:
            raise ValueError(f"slope {p}/{q} is not reduced")
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        return tuple.__new__(cls, (p, q))

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self):
        return f"{self.p}/{self.q}"


class TorusKnot(namedtuple("TorusKnot", ("r", "s"))):
    """The positive torus knot T(r, s), r, s >= 2 coprime.

    An immutable tuple (r, s), with the same two consequences as for Slope:
    it compares equal to the plain tuple (r, s), and _make and _replace skip
    the validation.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int):
        if r < 2 or s < 2:
            raise ValueError("torus knot parameters must be >= 2 (no unknots)")
        if gcd(r, s) != 1:
            raise ValueError(f"T({r},{s}) is not a knot: r, s must be coprime")
        return tuple.__new__(cls, (r, s))

    def __str__(self):
        return f"T({self.r},{self.s})"


@dataclass(frozen=True)
class SeifertInvariants:
    """Seifert invariants {b; (a1,b1), ..., (an,bn)} of an orientable Seifert
    fibration over S^2.

    Stored in the unique normalised form: pairs with alpha = 1 absorbed into
    b, 0 <= beta_i < alpha_i, fibers sorted.  Each shift (a, beta) ->
    (a, beta - a), b -> b + 1 preserves the manifold, so presentations that
    differ by shifts compare equal.  Each pair with alpha >= 2 must be coprime.
    """

    b: int
    fibers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        b = int(self.b)
        fibs = []
        for a, be in self.fibers:
            a, be = int(a), int(be)
            if a < 1:
                raise ValueError(f"fiber order {a} < 1")
            if a >= 2 and gcd(a, be) != 1:
                raise ValueError(f"fiber ({a},{be}) is not coprime")
            b += be // a
            if a >= 2:
                fibs.append((a, be % a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "fibers", tuple(sorted(fibs)))

    def base_orbifold(self) -> "Orbifold2":
        return Orbifold2(tuple(a for a, _ in self.fibers))

    def __str__(self):
        inner = ",".join(f"({a},{be})" for a, be in self.fibers)
        return "{%d;%s}" % (self.b, inner)


_SEIFERT_RE = re.compile(r"^\{(-?\d+);(\(-?\d+,-?\d+\)(?:,\(-?\d+,-?\d+\))*)?\}$")
_PAIR_RE = re.compile(r"\((-?\d+),(-?\d+)\)")
_LENS_RE = re.compile(r"^L\((-?\d+),(-?\d+)\)$", re.IGNORECASE)


def parse_seifert(text: str) -> SeifertInvariants:
    """Parse the textual form "{b;(a1,b1),...,(an,bn)}" (whitespace ignored)."""
    compact = re.sub(r"\s+", "", text)
    m = _SEIFERT_RE.match(compact)
    if not m:
        raise ValueError(f"cannot parse Seifert invariants: {text!r}")
    b = int(m.group(1))
    fibers = tuple((int(a), int(be)) for a, be in _PAIR_RE.findall(m.group(2) or ""))
    return SeifertInvariants(b, fibers)


def parse_lens(text: str) -> LensSpace:
    """Parse the textual form "L(p,q)" (whitespace and the case of L ignored)."""
    m = _LENS_RE.match(re.sub(r"\s+", "", text))
    if not m:
        raise ValueError(f"cannot parse lens space: {text!r}")
    return LensSpace(int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True)
class LensSpace:
    """Unoriented lens space L(p, q), stored as the canonical representative.

    The canonical q is the minimum of {q, -q, q^-1, -q^-1} mod p taken in
    [0, p).  L(-m, n) means L(m, -n).  L(0, 1) is S^2 x S^1 and L(1, 0) is
    S^3.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p < 0:
            p, q = -p, -q
        if p == 0:
            if abs(q) != 1:
                raise ValueError(f"L(0,{q}) is not a lens space")
            q = 1
        elif p == 1:
            q = 0
        else:
            q %= p
            if gcd(p, q) != 1:
                raise ValueError(f"L({p},{q}) requires gcd(p,q) = 1")
            qinv = pow(q, -1, p)
            q = min(q, (-q) % p, qinv, (-qinv) % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self):
        return f"L({self.p},{self.q})"


@dataclass(frozen=True)
class Orbifold2:
    """A 2-orbifold with underlying surface S^2 and the given cone orders.

    Order-1 cone points are removable and dropped; orders are stored sorted.

    chi is the orbifold Euler characteristic 2 - sum (1 - 1/m) over the cone
    points, as a reduced integer pair (numerator, denominator > 0).  It is
    computed at construction and stored as a plain instance attribute,
    outside the dataclass fields, so equality, hashing and repr do not see
    it.  It is not a functools.cached_property: on CPython 3.11 that
    descriptor writes instance.__dict__ on first read, which takes the
    instance off the inline-values layout and leaves every later attribute
    read on it unspecialised (a cone_orders read took about 49 ns after it,
    against 9 ns).
    """

    cone_orders: tuple[int, ...] = ()

    def __post_init__(self):
        orders = []
        for v in self.cone_orders:
            m = int(v)
            if m > 1:
                orders.append(m)
            elif m < 1:
                raise ValueError(f"cone order {v} < 1")
        orders.sort()
        den = lcm(*orders)
        num = (2 - len(orders)) * den + sum(den // m for m in orders)
        g = gcd(num, den)
        object.__setattr__(self, "cone_orders", tuple(orders))
        object.__setattr__(self, "chi", (num // g, den // g))

    def padded(self, k: int = 3) -> tuple[int, ...]:
        """Orders padded with 1s up to length k (requires <= k cone points)."""
        if len(self.cone_orders) > k:
            raise ValueError(f"orbifold {self} has more than {k} cone points")
        return (1,) * (k - len(self.cone_orders)) + self.cone_orders

    def __str__(self):
        return "S2(%s)" % ",".join(str(v) for v in self.cone_orders)


# ---------------------------------------------------------------------------
# Seifert invariant arithmetic


def normalize(M: SeifertInvariants) -> SeifertInvariants:
    """The identity: SeifertInvariants are normalised when built; kept for callers."""
    return M


def mirror(M: SeifertInvariants) -> SeifertInvariants:
    """The orientation reversal {-b; (a_i, -beta_i)}."""
    return SeifertInvariants(-M.b, tuple((a, -be) for a, be in M.fibers))


def euler_pair(b: int, fibers: tuple[tuple[int, int], ...]) -> tuple[int, int]:
    """The integers (num, den) with e = -num/den for the Seifert invariants
    {b; fibers}, where den = prod alpha_i and
    num = den b + sum_j beta_j prod_{i != j} alpha_i (not reduced).

    Takes the pieces rather than a SeifertInvariants so that fiberwise_lift
    can read the sum over lifted fibers without building one.
    """
    num, den = b, 1
    for a, be in fibers:
        num = num * a + be * den
        den *= a
    return num, den


def euler_number(M: SeifertInvariants):
    """e(M) = -(b + sum beta_i/alpha_i), exact, as a fractions.Fraction.
    The return type is named here, not annotated: fractions is imported
    only on this call, so an annotation naming Fraction would not resolve
    under typing.get_type_hints."""
    from fractions import Fraction

    num, den = euler_pair(M.b, M.fibers)
    return Fraction(-num, den)


def h1_order(M: SeifertInvariants) -> int:
    """Order of H_1(M); 0 encodes infinite H_1.

    |(prod alpha_i) b + sum_j beta_j prod_{i != j} alpha_i|, which equals
    |prod(alpha_i) * e(M)|.
    """
    return abs(euler_pair(M.b, M.fibers)[0])


def sfs_equivalent(M1: SeifertInvariants, M2: SeifertInvariants) -> bool:
    """Equality up to orientation-reversing homeomorphism, for small Seifert
    fibered spaces with >= 3 exceptional fibers.

    Lens-space presentations (<= 2 exceptional fibers) must be compared via
    sfs_to_lens and lens space equality instead.
    """
    if len(M1.fibers) <= 2 or len(M2.fibers) <= 2:
        raise LensRegimeError(
            "sfs_equivalent needs >= 3 exceptional fibers; route lens "
            "presentations through sfs_to_lens"
        )
    return M1 == M2 or M1 == mirror(M2)


def _lens_from_filling_slopes(m0: tuple[int, int], m1: tuple[int, int]) -> LensSpace:
    """Unoriented lens space obtained by gluing two solid tori along a torus,
    with meridian slopes m0, m1 written in a common basis of H_1(T^2).
    """
    a0, b0 = m0
    a1, b1 = m1
    # complete m0 to a basis (m0, ell) with intersection m0 . ell = 1
    assert gcd(a0, b0) == 1, "filling slope must be primitive"
    u = pow(a0, -1, abs(b0)) if b0 else a0
    v = (1 - a0 * u) // b0 if b0 else 0
    ell = (-v, u)  # det [[a0, b0], [-v, u]] = a0*u + b0*v = 1
    # m1 = q*m0 + t*ell; t = m0 . m1 up to sign, |t| = |H_1|
    x, y = ell
    q = y * a1 - x * b1
    t = a0 * b1 - b0 * a1
    if t == 0:
        return LensSpace(0, 1)
    return LensSpace(abs(t), q if t > 0 else -q)


def sfs_to_lens(M: SeifertInvariants) -> LensSpace:
    """The lens space presented by Seifert invariants with <= 2 exceptional
    fibers, via the 2x2 gluing calculus on the two fibered solid tori.
    """
    fibers = list(M.fibers)
    if len(fibers) > 2:
        raise LensRegimeError(f"{M} has {len(fibers)} exceptional fibers, not a lens presentation")
    while len(fibers) < 2:
        fibers.append((1, 0))
    (a1, b1), (a2, b2) = fibers
    # fold b into the first filling; the section reverses sign on the other side
    return _lens_from_filling_slopes((-a2, b2), (a1, b1 + M.b * a1))


def lens_covers(cover: LensSpace, base: LensSpace) -> int | None:
    """Degree of the covering cover -> base between lens spaces, or None.

    The degree-d cover of L(p, q) is L(p/d, q), so the cover must both divide
    (p_cover | p_base) and match in q.
    """
    if cover.p == 0 or base.p == 0:
        return 1 if cover == base else None
    if base.p % cover.p != 0:
        return None
    d = base.p // cover.p
    if cover != LensSpace(base.p // d, base.q):
        return None
    return d


# ---------------------------------------------------------------------------
# Quadratic form representability


def is_loeschian(n: int) -> bool:
    """True iff n = x^2 + xy + y^2 with integers x, y not both zero.

    Some such pair has 0 <= x <= sqrt(n).  For each such x, y solves
    y^2 + xy + x^2 - n = 0, so y = (-x + s) / 2 with s^2 = 4n - 3x^2; s^2 and
    x^2 agree mod 4, so s has the parity of x, and y is an integer exactly
    when 4n - 3x^2 is a square.
    """
    if n < 1:
        raise ValueError("is_loeschian needs n >= 1")
    for x in range(isqrt(n) + 1):
        disc = 4 * n - 3 * x * x
        if isqrt(disc) ** 2 == disc:
            return True
    return False


def is_two_square(n: int) -> bool:
    """True iff n = x^2 + y^2 with integers x, y not both zero: for each
    x <= sqrt(n), y = sqrt(n - x^2) must be an integer."""
    if n < 1:
        raise ValueError("is_two_square needs n >= 1")
    for x in range(isqrt(n) + 1):
        y = isqrt(n - x * x)
        if y * y == n - x * x:
            return True
    return False
