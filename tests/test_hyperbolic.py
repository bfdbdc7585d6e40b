import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehncover.core import Slope
from dehncover.hyperbolic import (
    LENGTH_TOL,
    CuspRecord,
    Filling,
    audit_knot,
    degree2_h1_obstruction,
    enumerate_short_slopes,
    normalize_cusp,
    normalized_cutoff,
    parse_census_line,
    rank_obstruction,
    read_census,
    short_slope_box,
    slope_length,
    vcsc_length_bound,
    volume_cover_filter,
)
from conftest import FIG8_FILLED, FIG8_VOLUME, SIX1_FILLED, SIX1_VOLUME, all_big_record, fig8_record, six1_record


def random_cusp(rng):
    re = rng.uniform(-3.0, 3.0)
    im = rng.choice((1, -1)) * rng.uniform(0.2, 5.0)
    return normalize_cusp(complex(re, im))


# --- cusp normalization and lengths


def test_normalize_cusp_examples():
    c = normalize_cusp(complex(0, 1))
    assert c.m == 1.0 and c.l == 1j
    s = complex(0, 2 * math.sqrt(3))
    c = normalize_cusp(s)
    assert abs(c.m - (2 * math.sqrt(3)) ** -0.5) < 1e-12
    assert abs(c.l - s * c.m) < 1e-12
    assert abs(c.area - 1.0) < 1e-12
    c = normalize_cusp(complex(4, 2))
    assert abs(c.area - 1.0) < 1e-12
    c = normalize_cusp(complex(1e5, -1.0))  # the most skewed shape accepted
    assert abs(c.area - 1.0) < 1e-12
    for bad in (complex(3, 0), complex(1e5 * (1 + 1e-9), 1.0), complex(0.3, 1e-300),
                complex(1e300, 1e-300), complex(math.inf, 1.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError):
            normalize_cusp(bad)


def test_slope_length_examples():
    c = normalize_cusp(complex(0, 1))
    assert slope_length(Slope(1, 0), c) == 1.0
    assert slope_length(Slope(0, 1), c) == 1.0
    assert slope_length(Slope(3, 4), c) == 5.0


def test_slope_length_triangle_inequality():
    rng = random.Random(1)
    for _ in range(200):
        c = random_cusp(rng)
        p1, q1 = rng.randint(-9, 9), rng.randint(-9, 9)
        p2, q2 = rng.randint(-9, 9), rng.randint(-9, 9)
        v1 = abs(p1 * c.m + q1 * c.l)
        v2 = abs(p2 * c.m + q2 * c.l)
        v12 = abs((p1 + p2) * c.m + (q1 + q2) * c.l)
        assert v12 <= v1 + v2 + 1e-12


# --- the box bound


def test_box_unit_cusp():
    c = normalize_cusp(complex(0, 1))
    assert short_slope_box(2.5, c) == (2.5, 2.5)


def test_box_soundness_random():
    rng = random.Random(20260811)
    for _ in range(10_000):
        c = random_cusp(rng)
        k = rng.uniform(0.5, 12.0)
        a, b = short_slope_box(k, c)
        # a slope just outside the box must be long
        if rng.random() < 0.5:
            p = rng.choice((1, -1)) * (int(a) + rng.randint(1, 10))
            q = rng.randint(-int(b) - 10, int(b) + 10)
        else:
            p = rng.randint(-int(a) - 10, int(a) + 10)
            q = rng.choice((1, -1)) * (int(b) + rng.randint(1, 10))
        if abs(p) <= a and abs(q) <= b:
            continue
        assert abs(p * c.m + q * c.l) > k


def box_loop_short_slopes(cusp, k):
    """The enumeration as it was before the reduced basis: every primitive
    point of short_slope_box, kept if its length passes."""
    a, b = short_slope_box(k, cusp)
    cut = k + LENGTH_TOL
    out = []
    length_inf = slope_length(Slope(1, 0), cusp)
    if length_inf <= cut:
        out.append((Slope(1, 0), length_inf))
    for q in range(1, int(b) + 1):
        for p in range(-int(a), int(a) + 1):
            if math.gcd(p, q) != 1:
                continue
            slope = Slope(p, q)
            length = slope_length(slope, cusp)
            if length <= cut:
                out.append((slope, length))
    out.sort(key=lambda t: (t[1], t[0].p, t[0].q))
    return out


@given(
    re=st.floats(-3.0, 3.0),
    im=st.floats(1e-3, 10.0),
    sign=st.sampled_from((1, -1)),
    k=st.floats(0.5, 12.0),
)
def test_enumerate_matches_box_loop(re, im, sign, k):
    cusp = normalize_cusp(complex(re, sign * im))
    # the same slopes with the same float lengths in the same order
    assert enumerate_short_slopes(cusp, k) == box_loop_short_slopes(cusp, k)


def test_enumerate_thin_cusp_at_once():
    # the box has 5.5 million rows here; the reduced basis has one candidate
    cusp = normalize_cusp(complex(0.0, 1e-12))
    start = time.process_time()
    got = enumerate_short_slopes(cusp, normalized_cutoff())
    assert time.process_time() - start < 0.5
    assert got == [(Slope(0, 1), slope_length(Slope(0, 1), cusp))]
    assert abs(got[0][1] - 1e-6) < 1e-18


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
def test_length_bound_must_be_finite_and_positive(k):
    cusp = normalize_cusp(complex(0, 1))
    with pytest.raises(ValueError, match="finite and positive"):
        enumerate_short_slopes(cusp, k)
    with pytest.raises(ValueError, match="finite and positive"):
        normalized_cutoff(k)


def test_enumerate_short_slopes_unit():
    c = normalize_cusp(complex(0, 1))
    got = [s for s, _ in enumerate_short_slopes(c, 1.5)]
    assert set(got) == {Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 1)}
    assert enumerate_short_slopes(c, 0.5) == []


def test_enumerate_matches_bruteforce_on_doubled_box():
    rng = random.Random(5)
    for _ in range(25):
        c = random_cusp(rng)
        k = rng.uniform(1.0, 8.0)
        got = {s for s, _ in enumerate_short_slopes(c, k)}
        a, b = short_slope_box(k, c)
        brute = set()
        for q in range(0, 2 * int(b) + 3):
            for p in range(-2 * int(a) - 3, 2 * int(a) + 4):
                if math.gcd(p, q) != 1:
                    continue
                if abs(p * c.m + q * c.l) <= k + 1e-9:
                    brute.add(Slope(p, q))
        assert got == brute


def test_short_slope_count_and_intersection_bound():
    rng = random.Random(17)
    cutoff = normalized_cutoff()
    for _ in range(40):
        c = random_cusp(rng)
        slopes = [s for s, _ in enumerate_short_slopes(c, cutoff)]
        assert len(slopes) <= 32
        for i, s1 in enumerate(slopes):
            for s2 in slopes[i + 1 :]:
                assert abs(s1.p * s2.q - s2.p * s1.q) < 30.84


# --- constants


def test_vcsc_length_bound():
    k = vcsc_length_bound()
    assert abs(k - 10.328942) < 1e-6
    assert k > 2 * math.pi
    # inverting the filled-volume bound at this length gives ratio exactly 1/2
    ratio = (1 - (2 * math.pi / k) ** 2) ** 1.5
    assert abs(ratio - 0.5) < 1e-12


# --- volume / homology obstructions


def test_volume_cover_filter_examples():
    # twice the filled volume still fits under the complement volume, so a
    # degree-2 cover is volume-consistent (this is exactly why the homology
    # parity check is needed for the small fillings)
    assert volume_cover_filter(2 * FIG8_FILLED, FIG8_FILLED, FIG8_VOLUME, 1e-4) == {2}
    assert 2 * FIG8_FILLED < FIG8_VOLUME
    assert volume_cover_filter(SIX1_FILLED, SIX1_FILLED, SIX1_VOLUME, 1e-6) == {1}
    with pytest.raises(ValueError):
        volume_cover_filter(5.0, 1.0, 4.0, 1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-4])
def test_tolerance_must_be_finite(tol):
    # nan used to drop real survivors, and inf never ended the degree loop
    with pytest.raises(ValueError, match="tolerance"):
        volume_cover_filter(2 * FIG8_FILLED, FIG8_FILLED, FIG8_VOLUME, tol)
    with pytest.raises(ValueError, match="tolerance"):
        audit_knot(fig8_record(), tol=tol)


def test_degree2_obstruction():
    assert degree2_h1_obstruction(5)
    assert degree2_h1_obstruction(1)
    assert not degree2_h1_obstruction(4)
    assert not degree2_h1_obstruction(0)


def test_rank_obstruction():
    assert rank_obstruction(0, 1)
    assert not rank_obstruction(1, 0)
    assert not rank_obstruction(1, 1)


# --- the audit


def test_audit_fig8():
    rep = audit_knot(fig8_record())
    assert rep.verified
    assert not rep.survivors
    parity_rows = [r for r in rep.rows if "odd" in r.reason]
    assert {r.base_slope for r in parity_rows} == {"5/1", "-5/1"}
    assert rep.exceptional  # the twist-knot exceptional range is deferred


def test_audit_six1():
    rep = audit_knot(six1_record())
    assert rep.verified
    parity_rows = [r for r in rep.rows if "odd" in r.reason]
    assert {r.base_slope for r in parity_rows} == {"1/1"}
    assert "|H1| = 1 is odd" in parity_rows[0].reason


def test_audit_all_volumes_large():
    rep = audit_knot(all_big_record())
    assert rep.verified
    assert all(r.status == "eliminated" for r in rep.rows)
    assert all("complement/2" in r.reason for r in rep.rows)


def test_audit_flags_missing_data():
    rec = fig8_record()
    rec2 = CuspRecord(rec.name, rec.cusp_shape, rec.volume_complement, rec.fillings[:-4])
    rep = audit_knot(rec2)
    assert not rep.verified
    assert any(r.status == "unmeasured" for r in rep.rows)


def test_audit_survivor_when_parity_fails():
    # a fabricated even-homology small-volume slope survives (degree 2 open)
    rec = fig8_record()
    fillings = []
    for f in rec.fillings:
        if f.slope == Slope(6, 1):
            fillings.append(Filling(f.slope, FIG8_FILLED))
        else:
            fillings.append(f)
    rep = audit_knot(CuspRecord("fake", rec.cusp_shape, rec.volume_complement, tuple(fillings)))
    assert not rep.verified
    assert any(r.status == "survivor" and r.base_slope == "6/1" and 2 in r.degrees for r in rep.rows)


# --- census ingestion


def test_parse_census_line():
    rec = parse_census_line("4_1 0.0 3.46410161 2.0298832 5 1 0.9813688 0 1 EXC")
    assert rec.name == "4_1"
    assert rec.fillings[0].volume == 0.9813688
    assert rec.fillings[1].exceptional
    with pytest.raises(ValueError):
        parse_census_line("bad 0.0 1.0")
    with pytest.raises(ValueError):
        parse_census_line("x 0.0 1.0 2.0 5 1")  # dangling filling tokens
    with pytest.raises(ValueError):
        parse_census_line("x 0.0 1.0 2.0 5 1 9.0")  # filling volume above complement
    with pytest.raises(ValueError, match="y: degenerate cusp shape"):
        parse_census_line("y 0.3 1e-300 2.0 5 1 0.9")  # too skewed for float lengths


def test_read_census_collects_errors(tmp_path, census_records):
    from conftest import census_text

    path = tmp_path / "census.txt"
    path.write_text(census_text(census_records) + "broken line here\n")
    records, errors = read_census(str(path))
    assert len(records) == len(census_records)
    assert len(errors) == 1
