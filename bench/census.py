"""
Seeded census generator for the census-audit workload, and the brute-force
short-slope search its answer check compares against.

Nothing here calls dehncover: the short slopes are found from the cusp shape
with this module's own length formula, and the expected fate of every
planted volume match is worked out from the parity and rank rules as the
paper states them.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd

# Maximal-cusp length cutoff 2*pi / sqrt(1 - (1/2)^(2/3)), converted to the
# area-1 cusp by the universal cusp-area bound 2*sqrt(3).
CUTOFF = 2.0 * math.pi / math.sqrt(1.0 - 0.5 ** (2.0 / 3.0)) / math.sqrt(2.0 * math.sqrt(3.0))

# Slopes within this distance of the cutoff may fall on either side of it in
# floating point; the check accepts them both ways.
BORDER = 1e-7

ORDINARY_IM = (0.5, 8.0)   # Im(shape) of ordinary cusps, log-stratified
THIN_IM = (1e-3, 1e-2)     # Im(shape) of thin cusps, log-stratified
THIN_EVERY = 20            # one record in twenty is thin (5%)
PLANT_EVERY = 5            # one record in five carries a planted match
EXTRA_FILLINGS = 4         # measured fillings on slopes longer than the cutoff

# The planted kinds, cycled in this order: the expected outcome of each is
# fixed by the rules, whatever the seed.
PLANT_KINDS = ("degree3", "degree2-even", "degree2-odd-parity", "slope0-rank")


@dataclass(frozen=True)
class Planted:
    """A filling g whose volume is degree times that of the short filling s."""

    record: str
    cover: tuple[int, int]
    base: tuple[int, int]
    degree: int
    kind: str
    survives: bool  # False when the parity or rank rule removes this degree


@dataclass(frozen=True)
class GeneratedRecord:
    name: str
    re: float
    im: float
    must: frozenset   # slopes (p, q), q >= 1, clearly shorter than the cutoff
    allowed: frozenset  # must plus the slopes within BORDER of it
    thin: bool


@dataclass(frozen=True)
class Census:
    path: str
    records: tuple[GeneratedRecord, ...]
    planted: tuple[Planted, ...]


def short_slopes(re: float, im: float, k: float = CUTOFF, widen: float = 2.0) -> dict:
    """Normalized length of every primitive slope (q >= 0) with length <= k
    + BORDER, by brute force over a box widen times the one that holds them.

    The cusp lattice of shape s = re + i*im, scaled to area 1, has generators
    m = 1/sqrt(im) and l = s*m, so |p*m + q*l|^2 = ((p + q*re)^2 + (q*im)^2)/im.
    A slope of length <= k has |q| <= k/sqrt(im) and |p| <= k*sqrt(im) +
    |q*re|.
    """
    root = math.sqrt(im)
    qmax = int(widen * k / root) + 1
    pmax = int(widen * (k * root + k * abs(re) / root)) + 1
    limit = (k + BORDER) ** 2 * im
    out = {}
    if 1.0 / im <= (k + BORDER) ** 2:
        out[(1, 0)] = 1.0 / root
    for q in range(1, qmax + 1):
        y2 = (q * im) ** 2
        if y2 > limit:
            break
        shift = q * re
        for p in range(-pmax, pmax + 1):
            x = p + shift
            d2 = x * x + y2
            if d2 <= limit and gcd(p, q) == 1:
                out[(p, q)] = math.sqrt(d2 / im)
    return out


def _shapes(rng: random.Random, count: int, im_range: tuple[float, float]) -> list[tuple[float, float]]:
    """count cusp shapes (re, im): Im log-stratified over im_range, Re
    stratified over [-0.5, 0.5], each value jittered inside its stratum.

    Stratum i of Im is paired with stratum (i * step) mod count of Re for a
    fixed step near count / golden ratio, so the shapes cover the rectangle
    evenly and the costliest records (small Im, large |Re|) are the same
    share of every seed's census.  The seed sets the jitter and the order.
    """
    lo, hi = im_range
    step = max(1, round(count / 1.618))
    while gcd(step, count) != 1:
        step += 1
    shapes = []
    for i in range(count):
        im = lo * (hi / lo) ** ((i + rng.random()) / count)
        re = -0.5 + ((i * step) % count + rng.random()) / count
        shapes.append((re, im))
    rng.shuffle(shapes)
    return shapes


def _fmt(v: float) -> str:
    return f"{v:.10f}"


def _long_slopes(rng: random.Random, short: dict, count: int) -> list[tuple[int, int]]:
    out = []
    while len(out) < count:
        p, q = rng.randint(-40, 40), rng.randint(1, 6)
        if gcd(p, q) == 1 and (p, q) not in short and (p, q) not in out:
            out.append((p, q))
    return out


def _plant_base(kind: str, rng: random.Random, hyperbolic: list[tuple[int, int]]):
    if kind == "slope0-rank":
        pool = [s for s in hyperbolic if s == (0, 1)]
    elif kind == "degree2-even":
        pool = [s for s in hyperbolic if s[0] != 0 and s[0] % 2 == 0]
    elif kind == "degree2-odd-parity":
        pool = [s for s in hyperbolic if s[0] % 2 == 1]
    else:
        pool = [s for s in hyperbolic if s[0] != 0]
    if not pool:
        raise RuntimeError(f"no short slope fits a {kind} plant")
    return rng.choice(pool)


def generate(path: str, seed: int, n_records: int) -> Census:
    """Write a census of n_records records to path and return what the
    audit must find in it."""
    rng = random.Random(f"census-audit/{seed}")
    thin_idx = [i for i in range(n_records) if i % THIN_EVERY == THIN_EVERY // 2]
    n_thin = len(thin_idx)
    n_ord = n_records - n_thin
    shapes = {"ord": _shapes(rng, n_ord, ORDINARY_IM), "thin": _shapes(rng, n_thin, THIN_IM)}
    thin_set = set(thin_idx)
    records, planted, lines = [], [], ["# generated census: name re im vol { p q vol|EXC }*"]
    n_planted = 0
    for i in range(n_records):
        group = "thin" if i in thin_set else "ord"
        re, im = shapes[group].pop()
        name = f"K{seed}_{i:05d}"
        vol_c = 2.0 + 4.0 * rng.random()
        lengths = short_slopes(re, im)
        must = frozenset(s for s, ln in lengths.items() if ln <= CUTOFF - BORDER and s != (1, 0))
        allowed = frozenset(s for s in lengths if s != (1, 0))
        fillings: dict[tuple[int, int], str] = {}
        for s in sorted(allowed):
            u = rng.random()
            if u < 0.1:
                continue  # no filling data: the audit reports it as unmeasured
            if u < 0.2:
                fillings[s] = "EXC"
            else:
                fillings[s] = _fmt(vol_c * rng.uniform(0.3, 0.95))
        extra = _long_slopes(rng, lengths, EXTRA_FILLINGS)
        for s in extra:
            fillings[s] = _fmt(vol_c * rng.uniform(0.6, 0.98))
        if group == "ord" and i % PLANT_EVERY == 0:
            kind = PLANT_KINDS[n_planted % len(PLANT_KINDS)]
            n_planted += 1
            hyperbolic = sorted(must - {(1, 0)})
            base = _plant_base(kind, rng, hyperbolic)
            degree = 3 if kind == "degree3" else 2
            vol_base = float(_fmt(vol_c * rng.uniform(0.12, 0.3)))
            fillings[base] = _fmt(vol_base)
            cover = extra[0]
            fillings[cover] = _fmt(degree * vol_base)
            # the rank rule clears every degree of slope 0; the parity rule
            # removes degree 2 when |H_1| = |p| is odd
            survives = not (base[0] == 0 or (degree == 2 and base[0] % 2 == 1))
            planted.append(Planted(name, cover, base, degree, kind, survives))
        toks = [name, repr(re), repr(im), _fmt(vol_c)]
        for (p, q), vol in fillings.items():
            toks += [str(p), str(q), vol]
        lines.append(" ".join(toks))
        records.append(GeneratedRecord(name, re, im, must, allowed, group == "thin"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return Census(path, tuple(records), tuple(planted))
