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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .core import Slope

MIN_CUSP_AREA = 2.0 * math.sqrt(3.0)
LENGTH_TOL = 1e-9  # slack for float length comparisons


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
    return k / math.sqrt(MIN_CUSP_AREA)


@dataclass(frozen=True)
class NormalizedCusp:
    """Cusp translations scaled to area 1 with positive real meridian."""

    m: float
    l: complex

    @property
    def area(self) -> float:
        return abs(self.m * self.l.imag)


def normalize_cusp(shape: complex) -> NormalizedCusp:
    """m = 1/sqrt(|Im s|), l = s m, from the cusp shape s = l/m."""
    if shape.imag == 0:
        raise ValueError("degenerate cusp shape (real)")
    m = 1.0 / math.sqrt(abs(shape.imag))
    cusp = NormalizedCusp(m, shape * m)
    assert abs(cusp.area - 1.0) <= 1e-12
    return cusp


def slope_length(slope: Slope, cusp: NormalizedCusp) -> float:
    """Normalized length |p m + q l| of the surgery curve."""
    return abs(slope.p * cusp.m + slope.q * cusp.l)


def short_slope_box(k: float, cusp: NormalizedCusp) -> tuple[float, float]:
    """(a, b) such that any slope with |p| > a or |q| > b has normalized
    length greater than k."""
    if k <= 0:
        raise ValueError("length bound must be positive")
    a = abs(k * cusp.l.real) / abs(cusp.m * cusp.l.imag) + k / cusp.m
    b = k / abs(cusp.l.imag)
    return a, b


def enumerate_short_slopes(cusp: NormalizedCusp, k: float) -> list[tuple[Slope, float]]:
    """All primitive slopes (q >= 0) of normalized length <= k, sorted by
    length (ties by (p, q))."""
    a, b = short_slope_box(k, cusp)
    cut = k + LENGTH_TOL
    out = []
    length_inf = slope_length(Slope(1, 0), cusp)
    if length_inf <= cut:
        out.append((Slope(1, 0), length_inf))
    for q in range(1, int(b) + 1):
        for p in range(-int(a), int(a) + 1):
            if gcd(p, q) != 1:
                continue
            slope = Slope(p, q)
            length = slope_length(slope, cusp)
            if length <= cut:
                out.append((slope, length))
    out.sort(key=lambda t: (t[1], t[0].p, t[0].q))
    return out


def volume_cover_filter(
    vol_cover: float, vol_base: float, vol_complement: float, tol: float
) -> set[int]:
    """Covering degrees compatible with the given volumes: n >= 1 with
    vol_cover = n * vol_base (within tol) and n * vol_base below the
    complement volume."""
    if vol_base <= 0 or vol_cover <= 0:
        raise ValueError("volumes must be positive")
    if vol_base >= vol_complement or vol_cover >= vol_complement:
        raise ValueError("filled volume must be below the complement volume")
    out = set()
    n = 1
    while n * vol_base < vol_complement + tol:
        if abs(vol_cover - n * vol_base) <= tol:
            out.add(n)
        n += 1
    return out


def degree2_h1_obstruction(p: int) -> bool:
    """True iff a manifold with |H_1| = p admits no 2-fold cover (p odd:
    no surjection H_1 -> Z/2).  p = 0 (infinite H_1) is never obstructed."""
    if p < 0:
        raise ValueError("p is an order, must be >= 0")
    return p % 2 == 1


def rank_obstruction(rank_cover: int, rank_base: int) -> bool:
    """True iff the transfer map obstructs the cover: the covered manifold
    cannot have larger rational homology rank than the covering one."""
    return rank_base > rank_cover


# ---------------------------------------------------------------------------
# Census records and the audit


@dataclass(frozen=True)
class Filling:
    slope: Slope
    volume: float | None = None  # None marks an exceptional (non-hyperbolic) filling

    @property
    def exceptional(self) -> bool:
        return self.volume is None


@dataclass(frozen=True)
class CuspRecord:
    name: str
    cusp_shape: complex
    volume_complement: float
    fillings: tuple[Filling, ...]

    def __post_init__(self):
        if self.cusp_shape.imag == 0:
            raise ValueError(f"{self.name}: degenerate cusp shape")
        if self.volume_complement <= 0:
            raise ValueError(f"{self.name}: complement volume must be positive")
        for f in self.fillings:
            if f.volume is not None and not 0 < f.volume < self.volume_complement:
                raise ValueError(
                    f"{self.name}: filling {f.slope} volume {f.volume} not in "
                    f"(0, {self.volume_complement})"
                )

    def filling_map(self):
        return {f.slope: f for f in self.fillings}


@dataclass(frozen=True)
class AuditRow:
    knot: str
    cover_slope: str  # "*" when the candidate cover is an arbitrary unknown slope
    base_slope: str
    degrees: tuple[int, ...]
    status: str  # survivor | eliminated | exceptional | unmeasured
    reason: str


@dataclass(frozen=True)
class AuditReport:
    knot: str
    rows: tuple[AuditRow, ...] = ()
    error: str | None = None

    @property
    def survivors(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.status == "survivor")

    @property
    def exceptional(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.status == "exceptional")

    @property
    def verified(self) -> bool:
        return self.error is None and not any(
            r.status in ("survivor", "unmeasured") for r in self.rows
        )


def audit_knot(rec: CuspRecord, tol: float = 1e-4) -> AuditReport:
    """Check one knot's surgery data for potential covered surgeries.

    Every short slope (normalized cutoff from vcsc_length_bound) that is a
    hyperbolic filling is a candidate covered base.  Volumes above half the
    complement volume are eliminated outright; for the rest, the candidate
    covering degrees n >= 2 with n * vol < complement survive the volume
    filter and are attacked with the parity and rank obstructions, plus a
    concrete volume match against every other filling.  An empty survivor
    list verifies the no-cover conjecture for this record.
    """
    cusp = normalize_cusp(rec.cusp_shape)
    cutoff = normalized_cutoff()
    fmap = rec.filling_map()
    half = rec.volume_complement / 2.0
    rows = []
    for slope, _length in enumerate_short_slopes(cusp, cutoff):
        if slope.is_infinity:
            continue  # the trivial filling is not a surgery
        f = fmap.get(slope)
        if f is None:
            rows.append(
                AuditRow(rec.name, "*", str(slope), (), "unmeasured", "no filling data")
            )
            continue
        if f.exceptional:
            rows.append(
                AuditRow(
                    rec.name, "*", str(slope), (), "exceptional",
                    "non-hyperbolic filling: deferred to the Seifert/toroidal analysis",
                )
            )
            continue
        if f.volume > half + tol:
            rows.append(
                AuditRow(
                    rec.name, "*", str(slope), (), "eliminated",
                    f"volume {f.volume:.7f} > complement/2 = {half:.7f} (tolerance-sensitive)",
                )
            )
            continue
        # candidate covered base; a degree-n cover would be a surgery of
        # volume n * vol, still below the complement volume
        degrees = set()
        n = 2
        while n * f.volume < rec.volume_complement + tol:
            degrees.add(n)
            n += 1
        reasons = []
        if slope.p == 0 and rank_obstruction(rank_cover=0, rank_base=1):
            degrees.clear()
            reasons.append("rank: 0-surgery is never covered by another surgery")
        if 2 in degrees and degree2_h1_obstruction(abs(slope.p)):
            degrees.discard(2)
            reasons.append(f"no 2-fold covers: |H1| = {abs(slope.p)} is odd")
        # concrete cover candidates among the measured fillings
        for g in rec.fillings:
            if g.exceptional or g.slope == slope:
                continue
            matched = volume_cover_filter(
                g.volume, f.volume, rec.volume_complement, tol
            ) & degrees
            if matched:
                rows.append(
                    AuditRow(
                        rec.name, str(g.slope), str(slope),
                        tuple(sorted(matched)), "survivor",
                        "volume matches a covering degree; not eliminated",
                    )
                )
        if degrees:
            rows.append(
                AuditRow(
                    rec.name, "*", str(slope), tuple(sorted(degrees)), "survivor",
                    "volume filter leaves candidate degrees; not eliminated",
                )
            )
        else:
            rows.append(
                AuditRow(
                    rec.name, "*", str(slope), (), "eliminated",
                    "; ".join(reasons) if reasons else "no degree passes the volume filter",
                )
            )
    return AuditReport(rec.name, tuple(rows))


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
    for i in range(0, len(rest), 3):
        p, q = int(rest[i]), int(rest[i + 1])
        raw = rest[i + 2]
        fillings.append(
            Filling(Slope(p, q), None if raw.upper() == "EXC" else _finite(name, raw))
        )
    return CuspRecord(name, shape, vol, tuple(fillings))


def read_census(path: str) -> tuple[list[CuspRecord], list[str]]:
    """Parse a census file; malformed records become error strings and do
    not stop the rest of the file from loading."""
    records, errors = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                records.append(parse_census_line(line))
            except (ValueError, IndexError) as exc:
                errors.append(f"line {lineno}: {exc}")
    return records, errors
