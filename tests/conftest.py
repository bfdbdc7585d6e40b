"""Shared fixtures: synthetic census records built over the short-slope set
of a chosen cusp shape, carrying the four volumes the audit tests pin.
Volumes for the remaining hyperbolic slopes are synthetic and chosen above
half the complement volume (the audit only needs them to clear that bar)."""
import math
from fractions import Fraction

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 stays
# reproducible and its wall time steady.
settings.register_profile(
    "dehncover", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("dehncover")

from dehncover.hyperbolic import (
    CuspRecord,
    Filling,
    enumerate_short_slopes,
    normalize_cusp,
    normalized_cutoff,
)

FIG8_VOLUME = 2.0298832
FIG8_FILLED = 0.9813688
SIX1_VOLUME = 3.1639632
SIX1_FILLED = 1.3985088


def chi_fraction(orb):
    """An orbifold's Euler characteristic as a Fraction, from the reduced
    integer pair Orbifold2.chi."""
    return Fraction(*orb.chi)


def build_record(name, shape, vol_complement, exceptional, special, filler_base):
    """A complete record over the short slopes of the given cusp shape.

    exceptional: set of (p, q) flagged EXC; special: {(p, q): volume} for the
    pinned small-volume fillings; everything else gets a synthetic volume
    filler_base + small slope-dependent wiggle (kept away from any multiple
    of the special volumes).
    """
    cusp = normalize_cusp(shape)
    fillings = []
    for slope, _ in enumerate_short_slopes(cusp, normalized_cutoff()):
        if slope.is_infinity:
            continue
        key = (slope.p, slope.q)
        if key in exceptional:
            fillings.append(Filling(slope, None))
        elif key in special:
            fillings.append(Filling(slope, special[key]))
        else:
            fillings.append(Filling(slope, filler_base + 0.0011 * abs(slope.p) + 0.013 * slope.q))
    return CuspRecord(name, shape, vol_complement, tuple(fillings))


def fig8_record():
    shape = complex(0.0, 2.0 * math.sqrt(3.0))
    exceptional = {(p, 1) for p in range(-4, 5)}
    special = {(5, 1): FIG8_FILLED, (-5, 1): FIG8_FILLED}
    return build_record("4_1", shape, FIG8_VOLUME, exceptional, special, 1.8)


def six1_record():
    shape = complex(0.5, 4.0)
    exceptional = {(p, 1) for p in (-4, -3, -2, -1, 0)}
    special = {(1, 1): SIX1_FILLED}
    return build_record("6_1", shape, SIX1_VOLUME, exceptional, special, 2.9)


def all_big_record():
    """Synthetic record whose hyperbolic fillings all clear complement/2."""
    shape = complex(-1.0, 3.0)
    return build_record("synthetic", shape, 4.0, set(), {}, 2.4)


def census_text(records):
    lines = ["# synthetic census fixture"]
    for rec in records:
        toks = [rec.name, repr(rec.cusp_shape.real), repr(rec.cusp_shape.imag),
                repr(rec.volume_complement)]
        for f in rec.fillings:
            toks.extend([str(f.slope.p), str(f.slope.q),
                         "EXC" if f.exceptional else repr(f.volume)])
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def census_records():
    return [fig8_record(), six1_record(), all_big_record()]


@pytest.fixture()
def census_file(tmp_path, census_records):
    path = tmp_path / "census.txt"
    path.write_text(census_text(census_records))
    return str(path)
