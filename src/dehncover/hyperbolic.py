"""
Audit of ingested hyperbolic surgery data for potential covering pairs.

Cusp shapes, complement volumes and filled volumes come from outside
software and are ingested as CuspRecord values; nothing here computes a
hyperbolic structure.  The audit normalizes the cusp to area 1, enumerates
the slopes short enough to matter, and eliminates candidate covered
surgeries by volume, homology parity and homology rank.

Volume is multiplicative under covers and every filling has volume below
the complement's, so a surgery covered nontrivially by another has volume
under half the complement volume; solving the filled-volume bound at that
threshold gives the maximal-cusp length cutoff vcsc_length_bound().  The
maximal cusp torus has area at least 2*sqrt(3), which converts the cutoff
to normalized (area 1) length; any two normalized-short slopes then have
intersection number under 30.84, capping the count at 32.

Which slopes are short is decided in exact integer arithmetic.  A float
shape is a dyadic rational, so D |Im s| times the squared normalized length
of p/q is an integer binary quadratic form F(p, q), and the cutoff k becomes
an integer bound N on it.  F is Gauss-reduced in integers (Cohen, A Course
in Computational Algebraic Number Theory, 1993, 5.4) and the points of the
reduced lattice with F <= N are walked row by row with math.isqrt, so no
tolerance enters the decision and no shape is too thin or too skewed.  The
lattice has area 1, so the walk visits about (k|u| + 1)(2k/|u| + 3) points
however thin the cusp is, where walking the box of short_slope_box grows
like 1/sqrt(Im(shape)).  The same integers order the slopes: the walk
gives each point the integer K = 4 a F(p, q), with a the first coefficient
of the reduced form, so length^2 = K / S for one integer scale S per cusp.
Slopes sort by (K, p, q), that is by exact length, ties by (p, q), and a
float length is made only by enumerate_short_slopes, for the short-slopes
listing.

A filling g matches a candidate base f at degree n when vol(g) = n vol(f)
within the tolerance (_volume_match), for the degrees n >= 2 with n vol(f)
below the complement volume (_degree_bound).  The audit sorts a record's
filling volumes once and bisects that list once per candidate degree, so
the match costs one sort per record plus about (bases x degrees) bisects,
not (bases x fillings) volume tests.  A base whose degree list would pass
MAX_CANDIDATE_DEGREES makes the record fail with DegreeLimitError.

The audit walks the short slopes as normalised integer pairs (p, q) from
_short_slopes, which normalises each lattice point as it generates it, and
builds no Slope for them; enumerate_short_slopes wraps the same walk for
callers that want Slopes.  Filling and AuditRow are namedtuples, as Slope
is, and the census reader and the audit build them as Slope.__new__ does,
with tuple.__new__, skipping the namedtuple's Python-level __new__.  Since
a Slope hashes and compares as its (p, q), the audit looks a walked pair up
in the record's slope_index, the {slope: position} dict that CuspRecord
builds in the same pass that rejects a slope listed twice.  A record also
keeps the NormalizedCusp it validated its shape with, and the audit reads
it from there.  read_census builds each distinct pair of p and q
tokens of a file once and shares that Slope among the records listing it:
a generated 1,000-record census has about 30,500 filling triples and 1,300
distinct pairs, a 96% hit rate.  The table holds at most one Slope per
distinct pair in the file and is dropped when read_census returns.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from math import gcd, isqrt
from operator import attrgetter

from .core import Slope, _check_tolerance

MIN_CUSP_AREA = 2.0 * math.sqrt(3.0)
# A base filling of volume v has the candidate degrees n with n v below the
# complement volume (plus the tolerance).  Hyperbolic volumes are at least
# 0.94, so a real record needs a complement volume near 10^3 to reach this
# many; a mistyped tiny volume or a huge tolerance would list billions.
MAX_CANDIDATE_DEGREES = 10**3
# The bisect window of a volume match is n v +- tol widened by this relative
# margin, far above the rounding of its ends; _volume_match decides every
# filling inside it.
MATCH_SLACK = 1e-9


class DegreeLimitError(ValueError):
    """A base volume admits more than MAX_CANDIDATE_DEGREES covering degrees."""


def _check_length_bound(k: float) -> None:
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"length bound must be finite and positive, got {k}")


def vcsc_length_bound() -> float:
    """Maximal-cusp length below which a slope could be a covered surgery:
    2*pi / sqrt(1 - (1/2)^(2/3)) = 10.328942...
    """
    return 2.0 * math.pi / math.sqrt(1.0 - 0.5 ** (2.0 / 3.0))


def normalized_cutoff(k: float | None = None) -> float:
    """Convert a maximal-cusp length bound to a normalized (area 1) length
    bound, using the universal lower bound 2*sqrt(3) for the cusp area."""
    if k is None:
        k = vcsc_length_bound()
    _check_length_bound(k)
    return k / math.sqrt(MIN_CUSP_AREA)


_AUDIT_CUTOFF = normalized_cutoff()  # 5.5496..., the cutoff audit_knot walks to


@dataclass(frozen=True)
class NormalizedCusp:
    """Cusp translations scaled to area 1 with positive real meridian, and
    the shape s = l/m they were built from, which _short_slopes reads."""

    m: float
    l: complex
    shape: complex

    @property
    def area(self) -> float:
        return abs(self.m * self.l.imag)


def normalize_cusp(shape: complex) -> NormalizedCusp:
    """m = 1/sqrt(|Im s|), l = s m, from the cusp shape s = l/m.

    ValueError for a non-finite or real shape, and for one whose l overflows
    a float (1e300 + 1e-300 i).  Every other shape, however thin or skewed,
    has its short slopes decided exactly by _short_slopes.
    """
    if not (math.isfinite(shape.real) and math.isfinite(shape.imag)):
        raise ValueError(f"non-finite cusp shape {shape}")
    if shape.imag == 0:
        raise ValueError("degenerate cusp shape (real)")
    m = 1.0 / math.sqrt(abs(shape.imag))
    cusp = NormalizedCusp(m, shape * m, shape)
    if not math.isfinite(cusp.l.real):
        raise ValueError(f"degenerate cusp shape {shape}: its normalized translation overflows a float")
    assert abs(cusp.area - 1.0) <= 1e-12
    return cusp


def short_slope_box(k: float, cusp: NormalizedCusp) -> tuple[float, float]:
    """(a, b) such that any slope with |p| > a or |q| > b has normalized
    length greater than k."""
    _check_length_bound(k)
    a = abs(k * cusp.l.real) / abs(cusp.m * cusp.l.imag) + k / cusp.m
    b = k / abs(cusp.l.imag)
    return a, b


def _gauss_reduce(a: int, b: int, c: int):
    """Gauss reduction of the positive definite integer form a x^2 + b x y
    + c y^2 (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    5.4): ((a, b, c), u, v) with |b| <= a <= c, where (u, v) is the basis of
    the reduced form in the old coordinates, as integer pairs."""
    pu, qu, pv, qv = 1, 0, 0, 1
    while True:
        mu = (b + a) // (2 * a)  # b - 2 a mu lies in [-a, a)
        if mu:
            c -= mu * (b - a * mu)
            b -= 2 * a * mu
            pv, qv = pv - mu * pu, qv - mu * qu
        if a <= c:
            return (a, b, c), (pu, qu), (pv, qv)
        a, c, pu, qu, pv, qv = c, a, pv, qv, pu, qu


def _short_slopes(cusp: NormalizedCusp, k: float) -> tuple[int, list[tuple[int, int, int]]]:
    """(S, [(K, p, q), ...]) for every primitive slope p/q of normalized
    length <= k, with (p, q) normalised as Slope stores it (q >= 0, 1/0 for
    infinity), sorted by (K, p, q).  K is an integer and the length of p/q
    is sqrt(K / S) exactly, for the one integer scale S of the cusp, so the
    order is that of the exact lengths, ties by (p, q).

    Every float is a dyadic rational, so the shape is s = (X + Y i)/D in
    integers, with D a power of two, and k = kn/kd.  The normalized length
    of p/q is |p + q s|/sqrt(|Im s|), so D |Y| length^2 is the integer form
    F(p, q) = (p D + q X)^2 + (q Y)^2, and p/q is short exactly when
    F(p, q) <= N = floor(kn^2 D |Y| / kd^2).  In the basis (u, v) of the
    Gauss-reduced form (a, b, c) of F (_gauss_reduce), the point x u + y v
    has w = 2 a x + b y and K = w^2 + Delta y^2 = 4 a F(x u + y v), with
    Delta = 4 a c - b^2, so S = 4 a D |Y|.  Row y >= 1 holds short points
    only for y <= isqrt(4 a N // Delta), and there exactly the x with
    |w| <= isqrt(4 a N - Delta y^2).  A vector and its negative give the
    same slope, so rows y < 0 are not walked and row 0 holds u alone, with
    K = 4 a^2, when a <= N.  The walk visits about (k|u| + 1)(2k/|u| + 3)
    points, with |u|^2 <= 2/sqrt(3), however thin or skewed the cusp.
    """
    _check_length_bound(k)
    (xn, xd), (yn, yd) = cusp.shape.real.as_integer_ratio(), cusp.shape.imag.as_integer_ratio()
    d = max(xd, yd)
    x0, y0 = xn * (d // xd), abs(yn) * (d // yd)
    kn, kd = k.as_integer_ratio()
    bound = kn * kn * d * y0 // (kd * kd)
    (a, b, c), (pu, qu), (pv, qv) = _gauss_reduce(d * d, 2 * d * x0, x0 * x0 + y0 * y0)
    out = []
    if a <= bound:
        out.append((4 * a * a, pu, qu) if qu > 0 or (qu == 0 and pu > 0) else (4 * a * a, -pu, -qu))
    two_a, four_an, delta = 2 * a, 4 * a * bound, 4 * a * c - b * b
    for y in range(1, isqrt(four_an // delta) + 1):
        by, dyy = b * y, delta * y * y
        t = isqrt(four_an - dyy)
        for x in range(-((t + by) // two_a), (t - by) // two_a + 1):
            if gcd(x, y) == 1:
                p, q = x * pu + y * pv, x * qu + y * qv
                if q < 0 or (q == 0 and p < 0):
                    p, q = -p, -q
                w = two_a * x + by
                out.append((w * w + dyy, p, q))
    out.sort()
    return 4 * a * d * y0, out


def enumerate_short_slopes(cusp: NormalizedCusp, k: float) -> list[tuple[Slope, float]]:
    """All primitive slopes (q >= 0) of normalized length <= k, sorted by
    exact length, ties by (p, q); see _short_slopes for the walk.  Each
    length is the root of K / S from one correctly rounded integer division,
    the only float the walk leads to.  A K / S below 2^-1022 would round to
    a subnormal, so 4^j K is divided instead and j taken off the root's
    exponent, which keeps lengths under 1e-154 as accurate as the rest."""
    scale, short = _short_slopes(cusp, k)
    out = []
    for key, p, q in short:
        j = max(0, scale.bit_length() - key.bit_length() - 1000) // 2
        out.append((Slope(p, q), math.ldexp(math.sqrt((key << 2 * j) / scale), -j)))
    return out


def _volume_match(vol_cover: float, n: int, vol_base: float, tol: float) -> bool:
    """The volume test of a degree-n cover: vol_cover = n * vol_base within tol."""
    return abs(vol_cover - n * vol_base) <= tol


def _degree_bound(vol_base: float, vol_complement: float, tol: float) -> int:
    """The largest n with n * vol_base < vol_complement + tol: a degree-n
    cover of a filling of volume vol_base has volume n * vol_base, which must
    stay below the complement volume.  DegreeLimitError when (vol_complement
    + tol) / vol_base passes MAX_CANDIDATE_DEGREES."""
    cap = vol_complement + tol
    estimate = cap / vol_base
    if not estimate <= MAX_CANDIDATE_DEGREES:  # also catches an overflow to inf
        raise DegreeLimitError(
            f"filling volume {vol_base:g} admits about {estimate:.3g} covering degrees "
            f"below the complement volume {vol_complement:g} (tolerance {tol:g}), "
            f"more than the limit of {MAX_CANDIDATE_DEGREES:,}"
        )
    # n * vol_base is monotone in n, so the float quotient is off by at most one
    n = math.ceil(estimate)
    while n * vol_base >= cap:
        n -= 1
    while (n + 1) * vol_base < cap:
        n += 1
    return n


def degree2_h1_obstruction(p: int) -> bool:
    """True iff a manifold with |H_1| = p admits no 2-fold cover (p odd:
    no surjection H_1 -> Z/2).  p = 0 (infinite H_1) is never obstructed."""
    if p < 0:
        raise ValueError("p is an order, must be >= 0")
    return p % 2 == 1


# ---------------------------------------------------------------------------
# Census records and the audit


class Filling(namedtuple("Filling", ("slope", "volume"), defaults=(None,))):
    """One measured or exceptional filling of a cusp: an immutable tuple
    (slope, volume), with volume None for an exceptional (non-hyperbolic)
    filling."""

    __slots__ = ()

    @property
    def exceptional(self) -> bool:
        return self.volume is None


@dataclass(frozen=True)
class CuspRecord:
    """One knot's ingested data.  The cusp shape must pass normalize_cusp,
    whose result the record keeps as cusp (outside ==, hash and repr), so a
    degenerate shape is rejected when the record is built, and so is a slope
    listed twice (one of its two volumes would be lost) and a volume on 1/0
    (that filling is S^3, never hyperbolic).  The pass over the fillings
    that finds a repeated slope also builds slope_index, {slope: position
    in fillings}, which the record keeps for audit_knot, outside ==, hash
    and repr as cusp is."""

    name: str
    cusp_shape: complex
    volume_complement: float
    fillings: tuple[Filling, ...]
    cusp: NormalizedCusp = field(init=False, repr=False, compare=False)
    slope_index: dict[Slope, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "cusp", normalize_cusp(self.cusp_shape))
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None
        if self.volume_complement <= 0:
            raise ValueError(f"{self.name}: complement volume must be positive")
        index = {}
        for i, (slope, volume) in enumerate(self.fillings):
            if volume is not None:
                if slope == (1, 0):
                    raise ValueError(f"{self.name}: slope 1/0 gives S^3, which has no volume")
                if not 0 < volume < self.volume_complement:
                    raise ValueError(
                        f"{self.name}: filling {slope} volume {volume} not in "
                        f"(0, {self.volume_complement})"
                    )
            if slope in index:
                raise ValueError(f"{self.name}: slope {slope} is listed twice")
            index[slope] = i
        object.__setattr__(self, "slope_index", index)


class AuditRow(
    namedtuple("AuditRow", ("knot", "cover_slope", "base_slope", "degrees", "status", "reason"))
):
    """One line of an audit, an immutable tuple.  cover_slope is "*" when the
    candidate cover is an arbitrary unknown slope; status is survivor,
    eliminated, exceptional or unmeasured."""

    __slots__ = ()


@dataclass(frozen=True)
class AuditReport:
    knot: str
    rows: tuple[AuditRow, ...] = ()

    @property
    def survivors(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.status == "survivor")

    @property
    def exceptional(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.status == "exceptional")

    @property
    def verified(self) -> bool:
        return not any(r.status in ("survivor", "unmeasured") for r in self.rows)


_volume = attrgetter("volume")


def audit_knot(rec: CuspRecord, tol: float = 1e-4) -> AuditReport:
    """Check one knot's surgery data for potential covered surgeries.

    Every short slope (normalized cutoff from vcsc_length_bound) that is a
    hyperbolic filling is a candidate covered base.  Volumes above half the
    complement volume are eliminated outright; for the rest, the candidate
    covering degrees n >= 2 with n * vol < complement survive the volume
    filter and are attacked with the parity and rank obstructions, plus a
    concrete volume match against every other filling.  An empty survivor
    list verifies the no-cover conjecture for this record.

    A short slope's filling is found in rec.slope_index, built with the
    record.  The filling volumes are sorted once; each candidate degree n then
    bisects that list for the window around n * vol and tests only the
    fillings inside it.  Survivor rows keep the order of rec.fillings, with
    their degrees ascending.  DegreeLimitError, naming the record and the
    base slope, when a base's degree bound passes MAX_CANDIDATE_DEGREES.
    """
    _check_tolerance(tol)
    name, fillings, index = rec.name, rec.fillings, rec.slope_index
    by_volume = sorted([f for f in fillings if f.volume is not None], key=_volume)
    volumes = [f.volume for f in by_volume]
    half = rec.volume_complement / 2.0
    too_big = f" > complement/2 = {half:.7f} (tolerance-sensitive)"
    rows = []
    for _key, p, q in _short_slopes(rec.cusp, _AUDIT_CUTOFF)[1]:
        if q == 0:
            continue  # the trivial filling 1/0 is not a surgery
        base = f"{p}/{q}"  # str(Slope(p, q))
        i = index.get((p, q))
        if i is None:
            rows.append(tuple.__new__(AuditRow, (name, "*", base, (), "unmeasured", "no filling data")))
            continue
        f = fillings[i]
        vol = f.volume
        if vol is None:
            rows.append(tuple.__new__(AuditRow, (
                name, "*", base, (), "exceptional",
                "non-hyperbolic filling: deferred to the Seifert/toroidal analysis",
            )))
            continue
        if vol > half + tol:
            rows.append(tuple.__new__(AuditRow, (
                name, "*", base, (), "eliminated", f"volume {vol:.7f}{too_big}",
            )))
            continue
        # candidate covered base; a degree-n cover would be a surgery of
        # volume n * vol, still below the complement volume
        reasons = []
        if p == 0:  # only 0/1 has b_1 = 1, and a cover's b_1 is at least its base's
            degrees = range(0)
            reasons.append("rank: 0-surgery is never covered by another surgery")
        else:
            try:
                top = _degree_bound(vol, rec.volume_complement, tol)
            except DegreeLimitError as exc:
                raise DegreeLimitError(f"{name}: base slope {base}: {exc}") from None
            degrees = range(2, top + 1)
            if top >= 2 and degree2_h1_obstruction(abs(p)):
                degrees = range(3, top + 1)
                reasons.append(f"no 2-fold covers: |H1| = {abs(p)} is odd")
        # concrete cover candidates among the measured fillings
        matched: dict[int, list[int]] = {}
        for n in degrees:
            centre = n * vol
            pad = tol + MATCH_SLACK * (centre + tol)
            lo = bisect_left(volumes, centre - pad)
            for g in by_volume[lo:bisect_right(volumes, centre + pad, lo)]:
                if g is not f and _volume_match(g.volume, n, vol, tol):
                    matched.setdefault(index[g.slope], []).append(n)
        for j in sorted(matched):
            rows.append(tuple.__new__(AuditRow, (
                name, str(fillings[j].slope), base, tuple(matched[j]), "survivor",
                "volume matches a covering degree; not eliminated",
            )))
        if degrees:
            rows.append(tuple.__new__(AuditRow, (
                name, "*", base, tuple(degrees), "survivor",
                "volume filter leaves candidate degrees; not eliminated",
            )))
        else:
            rows.append(tuple.__new__(AuditRow, (
                name, "*", base, (), "eliminated",
                "; ".join(reasons) if reasons else "no degree passes the volume filter",
            )))
    return AuditReport(name, tuple(rows))


# ---------------------------------------------------------------------------
# Census file ingestion

# line format:  name  re(shape) im(shape)  vol_complement  { p q (vol|EXC) }*
# '#' starts a comment; blank lines are skipped.


def _finite(name: str, token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{name}: non-finite number {token!r}")
    return value


def parse_census_line(line: str) -> CuspRecord:
    return _parse_census_line(line, {})


def _parse_census_line(line: str, slopes: dict[tuple[str, str], Slope]) -> CuspRecord:
    """parse_census_line, taking each filling's Slope from slopes (keyed by
    the p and q tokens as written, so a pair seen before is not parsed
    again) and adding to it the ones it has to build."""
    tokens = line.split()
    if len(tokens) < 4:
        raise ValueError("record needs: name, shape re, shape im, complement volume")
    name = tokens[0]
    shape = complex(_finite(name, tokens[1]), _finite(name, tokens[2]))
    vol = _finite(name, tokens[3])
    rest = tokens[4:]
    if len(rest) % 3:
        raise ValueError(f"{name}: filling entries must come in (p, q, volume) triples")
    fillings = []
    triples = iter(rest)
    for p, q, raw in zip(triples, triples, triples):
        slope = slopes.get((p, q))
        if slope is None:
            slope = slopes[p, q] = Slope(int(p), int(q))  # raises before storing an unreduced pair
        if len(raw) == 3 and raw.upper() == "EXC":  # a longer number skips upper()
            volume = None
        else:
            volume = float(raw)
            if not math.isfinite(volume):
                raise ValueError(f"{name}: non-finite number {raw!r}")
        fillings.append(tuple.__new__(Filling, (slope, volume)))
    return CuspRecord(name, shape, vol, tuple(fillings))


def read_census(path: str) -> tuple[list[CuspRecord], list[str]]:
    """Parse a census file; malformed records, and lines that are not UTF-8,
    become error strings and do not stop the rest of the file from loading.
    The lines share one table of Slopes, so each distinct pair of p and q
    tokens in the file is parsed and built once."""
    records, errors = [], []
    slopes: dict[tuple[str, str], Slope] = {}
    with open(path, "rb") as fh:
        # bytes.splitlines ends a line at \n, \r\n or a lone \r, as text mode does
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, raw in enumerate(lines, 1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                errors.append(f"line {lineno}: not UTF-8: {exc}")
                continue
            if not line:
                continue
            try:
                records.append(_parse_census_line(line, slopes))
            except (ValueError, IndexError) as exc:
                errors.append(f"line {lineno}: {exc}")
    return records, errors
