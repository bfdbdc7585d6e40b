import copy
import decimal
import hashlib
import math
import pickle
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehncover.core import Slope
from dehncover.hyperbolic import (
    MAX_CANDIDATE_DEGREES,
    AuditRow,
    CuspRecord,
    DegreeLimitError,
    Filling,
    _check_tolerance,
    _degree_bound,
    _gauss_reduce,
    _short_slopes,
    _volume_match,
    audit_knot,
    degree2_h1_obstruction,
    enumerate_short_slopes,
    normalize_cusp,
    normalized_cutoff,
    parse_census_line,
    read_census,
    short_slope_box,
    vcsc_length_bound,
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
    # no skew limit: thin and skewed shapes are walked exactly
    for shape in (complex(1e5, -1.0), complex(1e8, 1e-6), complex(0.3, 1e-300), complex(1e150, 1e-150)):
        c = normalize_cusp(shape)
        assert abs(c.area - 1.0) < 1e-12 and c.shape == shape
    # real, non-finite, and l overflowing a float
    for bad in (complex(3, 0), complex(1e300, 1e-300), complex(math.inf, 1.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError):
            normalize_cusp(bad)


def test_enumerate_short_slopes_lengths():
    lengths = dict(enumerate_short_slopes(normalize_cusp(complex(0, 1)), 5.0))
    assert lengths[Slope(1, 0)] == lengths[Slope(0, 1)] == 1.0
    assert lengths[Slope(3, 4)] == 5.0
    # 10 * 0.7 - 7 is -4.44e-16 and cancels in p m + q Re(l), which in
    # floats read 1e-9 here instead of 4.44e-6
    c = normalize_cusp(complex(0.7, 1e-20))
    exact = math.sqrt((10 * Fraction(0.7) - 7) ** 2 / Fraction(1e-20) + 100 * Fraction(1e-20))
    assert enumerate_short_slopes(c, normalized_cutoff()) == [(Slope(-7, 10), pytest.approx(exact, rel=1e-12))]


def test_exact_ties_and_near_ties_keep_the_exact_order():
    # -5/2, 1/3, 5/3 and 9/2 all have squared length exactly 85/3 on -1 + 3i,
    # so they come in (p, q) order; float lengths had put 9/2 before 1/3
    cusp = normalize_cusp(complex(-1.0, 3.0))
    got = [(s.p, s.q) for s, _ in enumerate_short_slopes(cusp, normalized_cutoff())]
    exact = exact_length2(cusp.shape, normalized_cutoff())
    tie = [(p, q) for p, q in got if exact(p, q) == Fraction(85, 3)]
    assert tie == [(-5, 2), (1, 3), (5, 3), (9, 2)]
    assert got[got.index(tie[0]):][:4] == tie
    # 0/1 is longer than 1/0 by a relative 5e-126 on 3.3e-63 + i, below any
    # float's resolution; the float walk listed it first
    cusp = normalize_cusp(complex(3.3e-63, 1.0))
    assert [s for s, _ in enumerate_short_slopes(cusp, normalized_cutoff())][:2] == [Slope(1, 0), Slope(0, 1)]


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


def exact_length2(shape, k):
    """A function of (p, q) giving the exact normalized squared length
    |p + q s|^2 / |Im s| of p/q on the cusp of shape s, as a Fraction, when
    it is at most k^2, and None otherwise.  With the Fractions re = Re s,
    im = |Im s| and k^2 over one denominator D, the test is on integers."""
    re, im, k2 = Fraction(shape.real), abs(Fraction(shape.imag)), Fraction(k) ** 2
    D = math.lcm(re.denominator, im.denominator)
    X, Y = int(re * D), int(im * D)
    # |p + q s|^2 / |Im s| = ((p D + q X)^2 + (q Y)^2) / (D Y)
    limit = k2 * D * Y

    def length2(p, q):
        f = (p * D + q * X) ** 2 + (q * Y) ** 2
        return Fraction(f, D * Y) if f <= limit else None

    return length2


def box_loop_short_slopes(cusp, k):
    """The enumeration as it was before the reduced basis: every primitive
    point of short_slope_box, kept if its exact length passes, as (exact
    squared length, p, q) sorted by exact length, ties by (p, q)."""
    a, b = short_slope_box(k, cusp)
    exact = exact_length2(cusp.shape, k)
    out = []
    for q in range(0, int(b) + 1):
        for p in range(-int(a), int(a) + 1) if q else (1,):
            if math.gcd(p, q) == 1:
                length2 = exact(p, q)
                if length2 is not None:
                    out.append((length2, p, q))
    return sorted(out)


def assert_matches_exact(cusp, k, want):
    """_short_slopes(cusp, k) lists exactly the (exact squared length, p, q)
    of want, in its order, as K / S, and enumerate_short_slopes gives each
    slope a float length within 1e-12 relative of the exact one."""
    scale, short = _short_slopes(cusp, k)
    assert [(Fraction(key, scale), p, q) for key, p, q in short] == want
    got = enumerate_short_slopes(cusp, k)
    assert [(s.p, s.q) for s, _ in got] == [(p, q) for _, p, q in want]
    for (_, length), (length2, _p, _q) in zip(got, want):
        assert abs(Fraction(length) ** 2 / length2 - 1) <= 2e-12


@given(
    re=st.floats(-3.0, 3.0),
    im=st.floats(1e-3, 10.0),
    sign=st.sampled_from((1, -1)),
    k=st.floats(0.5, 12.0),
)
def test_enumerate_matches_box_loop(re, im, sign, k):
    cusp = normalize_cusp(complex(re, sign * im))
    assert_matches_exact(cusp, k, box_loop_short_slopes(cusp, k))


def doubled_box_short_slopes(shape, k):
    """Every primitive slope of exact normalized length <= k in twice the
    box of short_slope_box, walked row by row: row q >= 0 of that box holds
    the p with |p + q Re s| <= 2 k sqrt(|Im s|) + 1, and each is tested in
    Fractions.  Sorted as box_loop_short_slopes."""
    re = Fraction(shape.real)
    exact = exact_length2(shape, k)
    half = 2 * k * math.sqrt(abs(shape.imag)) + 1
    out = []
    for q in range(0, 2 * int(k / math.sqrt(abs(shape.imag))) + 3):
        centre = -q * re
        for p in range(math.floor(centre - half), math.ceil(centre + half) + 1):
            if math.gcd(p, q) == 1 and (q or p == 1):
                length2 = exact(p, q)
                if length2 is not None:
                    out.append((length2, p, q))
    return sorted(out)


@given(
    im=st.floats(1e-6, 10.0),
    skew=st.floats(-1e8, 1e8),
    sign=st.sampled_from((1, -1)),
    k=st.floats(0.5, 6.0),
)
def test_skewed_and_thin_cusps_match_the_exact_reference(im, skew, sign, k):
    # |Re| / |Im| up to 1e8, the range the float walk refused past 1e5
    shape = complex(skew * im, sign * im)
    assert_matches_exact(normalize_cusp(shape), k, doubled_box_short_slopes(shape, k))


def test_enumerate_thin_cusp_at_once():
    # the box has 5.5 million rows here; the reduced basis has one candidate
    cusp = normalize_cusp(complex(0.0, 1e-12))
    start = time.process_time()
    got = enumerate_short_slopes(cusp, normalized_cutoff())
    assert time.process_time() - start < 0.5
    assert [s for s, _ in got] == [Slope(0, 1)]
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
        exact = exact_length2(c.shape, k)
        brute = set()
        for q in range(0, 2 * int(b) + 3):
            for p in range(-2 * int(a) - 3, 2 * int(a) + 4):
                if math.gcd(p, q) == 1 and exact(p, q) is not None:
                    brute.add(Slope(p, q))
        assert got == brute


@given(re=st.floats(allow_nan=False, allow_infinity=False),
       im=st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_shape_ends_in_a_result(re, im):
    # a ValueError only for a real shape or an l that overflows a float;
    # every other shape walks at once, without an OverflowError
    shape = complex(re, im)
    if im == 0 or not math.isfinite(re * (1.0 / math.sqrt(abs(im)))):
        with pytest.raises(ValueError, match="degenerate cusp shape"):
            normalize_cusp(shape)
        return
    start = time.process_time()
    got = enumerate_short_slopes(normalize_cusp(shape), normalized_cutoff())
    assert time.process_time() - start < 0.5
    assert 1 <= len(got) <= 32
    # lengths sorted, at most the cutoff, and within 1e-12 of exact, also
    # where the squared length is a subnormal float or smaller
    exact = exact_length2(shape, normalized_cutoff())
    assert [length for _, length in got] == sorted(length for _, length in got)
    for slope, length in got:
        assert 0 < length <= normalized_cutoff()
        assert abs(Fraction(length) ** 2 / exact(slope.p, slope.q) - 1) <= 2e-12


def test_the_cutoff_is_exact():
    # 1/0 and 0/1 have length exactly 1 on the square cusp; the float walk
    # kept them below 1 too, within its length tolerance
    c = normalize_cusp(1j)
    assert enumerate_short_slopes(c, math.nextafter(1.0, 0.0)) == []
    assert enumerate_short_slopes(c, 1.0) == [(Slope(0, 1), 1.0), (Slope(1, 0), 1.0)]


def test_thin_and_skewed_cusps_walk_exactly():
    for shape, slope in (
        # 0.3 is 5404319552844595 / 2^54, so p/q = -0.3 has p + q s = q Im(s) i
        # and normalized length 2^54 * 1e-300 / sqrt(1e-300)
        (complex(0.3, 1e-300), Slope(-5404319552844595, 2**54)),
        # the reduced u is -1e150 + s = 1e-150 i, of length 1e-75; the walk
        # must not build a float from the 1,048-bit coefficients
        (complex(1e150, 1e-150), Slope(-int(1e150), 1)),
        # squared lengths 1e-320 and 4.8e-314, subnormal as floats
        (complex(0.0, 1e-320), Slope(0, 1)),
        (complex(0.25, 3e-315), Slope(-1, 4)),
        # squared length 6.8 * 2^-1074, which a subnormal would round to 7
        (complex(3 * 2.0**-1074, 5 * 2.0**-1074), Slope(0, 1)),
    ):
        exact = exact_length2(shape, normalized_cutoff())(slope.p, slope.q)
        [(got, length)] = enumerate_short_slopes(normalize_cusp(shape), normalized_cutoff())
        assert got == slope
        assert abs(Fraction(length) ** 2 / exact - 1) <= 2e-16


@pytest.mark.parametrize("shape", [complex(-1.7, 0.1), complex(-2.6, -0.1)])
def test_short_slopes_normalise_a_reduced_u_with_negative_q(shape):
    # the walk takes u itself as the one point of row 0, so u must get the
    # same sign normalisation and length test as every other point
    c = normalize_cusp(shape)
    (xn, xd), (yn, yd) = shape.real.as_integer_ratio(), shape.imag.as_integer_ratio()
    d = max(xd, yd)
    x0, y0 = xn * (d // xd), yn * (d // yd)
    (a, b, cc), (pu, qu), (pv, qv) = _gauss_reduce(d * d, 2 * d * x0, x0 * x0 + y0 * y0)
    assert qu < 0 and abs(b) <= a <= cc and abs(pu * qv - pv * qu) == 1
    form = lambda p, q: (p * d + q * x0) ** 2 + (q * y0) ** 2
    assert (a, b, cc) == (form(pu, qu), form(pu + pv, qu + qv) - form(pu, qu) - form(pv, qv), form(pv, qv))
    u = math.sqrt(a / (d * abs(y0)))
    for k in (u * 0.999, u * 1.001, 1.5, 4.0):
        assert_matches_exact(c, k, doubled_box_short_slopes(shape, k))
        assert ((-pu, -qu) in [(p, q) for _key, p, q in _short_slopes(c, k)[1]]) == (k > u)


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


def _pi(digits):
    """pi to about the given number of decimal digits, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        eps = decimal.Decimal(10) ** -(digits + 5)

        def arctan_inv(n):
            total, power, k = decimal.Decimal(0), decimal.Decimal(1) / n, 0
            while power > eps:
                total += (-1) ** k * power / (2 * k + 1)
                power /= n * n
                k += 1
            return total

        return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def test_the_default_cutoff_is_conservative():
    # the walk compares exactly against the float cutoff, so its square must
    # not fall below the true (2 pi)^2 / ((1 - 2^(-2/3)) 2 sqrt 3), which is
    # computed here to 60 digits
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        pi = _pi(60)
        assert abs(pi - D("3.14159265358979323846264338327950288419716939937510582097494")) < D("1e-58")
        true = (2 * pi) ** 2 / ((1 - D(2) ** (D(-2) / 3)) * 2 * D(3).sqrt())
        cutoff = Fraction(normalized_cutoff())
        got = D(cutoff.numerator) ** 2 / D(cutoff.denominator) ** 2
        assert got >= true
        assert (got - true) / true < D("1e-13")


# --- volume / homology obstructions


def filter_degrees(vol_cover, vol_base, vol_complement, tol):
    """The audit's volume filter: the degrees n >= 1 below _degree_bound whose
    n * vol_base matches vol_cover (_volume_match)."""
    top = _degree_bound(vol_base, vol_complement, tol)
    return {n for n in range(1, top + 1) if _volume_match(vol_cover, n, vol_base, tol)}


def test_volume_cover_filter_examples():
    # twice the filled volume still fits under the complement volume, so a
    # degree-2 cover is volume-consistent (this is exactly why the homology
    # parity check is needed for the small fillings)
    assert _degree_bound(FIG8_FILLED, FIG8_VOLUME, 1e-4) == 2
    assert filter_degrees(2 * FIG8_FILLED, FIG8_FILLED, FIG8_VOLUME, 1e-4) == {2}
    assert 2 * FIG8_FILLED < FIG8_VOLUME
    assert filter_degrees(SIX1_FILLED, SIX1_FILLED, SIX1_VOLUME, 1e-6) == {1}
    # a filling volume above the complement volume is refused with the record
    with pytest.raises(ValueError, match=r"x: filling 5/1 volume 5.0 not in \(0, 4.0\)"):
        CuspRecord("x", 1j, 4.0, (Filling(Slope(5, 1), 5.0),))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-4])
def test_tolerance_must_be_finite(tol):
    # what the rule prevents: an infinite tolerance leaves no degree bound
    # (it never ended the degree loop), and within a nan or negative one not
    # even an exact volume matches (nan dropped real survivors)
    if math.isinf(tol):
        with pytest.raises(DegreeLimitError):
            _degree_bound(FIG8_FILLED, FIG8_VOLUME, tol)
    else:
        assert not _volume_match(2 * FIG8_FILLED, 2, FIG8_FILLED, tol)
    with pytest.raises(ValueError, match=f"tolerance must be finite and >= 0, got {tol}"):
        _check_tolerance(tol)
    with pytest.raises(ValueError, match="tolerance"):
        audit_knot(fig8_record(), tol=tol)


def test_zero_tolerance_asks_for_exact_matches():
    _check_tolerance(0.0)
    assert _volume_match(2 * FIG8_FILLED, 2, FIG8_FILLED, 0.0)
    assert not _volume_match(math.nextafter(2 * FIG8_FILLED, 3.0), 2, FIG8_FILLED, 0.0)
    assert audit_knot(fig8_record(), tol=0.0) == audit_knot(fig8_record(), tol=1e-4)


def test_degree2_obstruction():
    assert degree2_h1_obstruction(5)
    assert degree2_h1_obstruction(1)
    assert not degree2_h1_obstruction(4)
    assert not degree2_h1_obstruction(0)


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


def reference_audit_rows(rec, tol):
    """The audit's rows as they were computed before the bisect: every
    (short slope, filling) pair is tested, walking n = 1, 2, ... per pair."""
    def walk(vol_cover, vol_base):
        out, n = set(), 1
        while n * vol_base < rec.volume_complement + tol:
            if abs(vol_cover - n * vol_base) <= tol:
                out.add(n)
            n += 1
        return out

    fmap = {f.slope: f for f in rec.fillings}
    half = rec.volume_complement / 2.0
    rows = []
    for slope, _length in enumerate_short_slopes(normalize_cusp(rec.cusp_shape), normalized_cutoff()):
        if slope.is_infinity:
            continue
        f = fmap.get(slope)
        if f is None:
            rows.append(AuditRow(rec.name, "*", str(slope), (), "unmeasured", "no filling data"))
            continue
        if f.exceptional:
            rows.append(AuditRow(rec.name, "*", str(slope), (), "exceptional",
                                 "non-hyperbolic filling: deferred to the Seifert/toroidal analysis"))
            continue
        if f.volume > half + tol:
            rows.append(AuditRow(rec.name, "*", str(slope), (), "eliminated",
                                 f"volume {f.volume:.7f} > complement/2 = {half:.7f} (tolerance-sensitive)"))
            continue
        degrees = set()
        n = 2
        while n * f.volume < rec.volume_complement + tol:
            degrees.add(n)
            n += 1
        reasons = []
        if slope.p == 0:
            degrees.clear()
            reasons.append("rank: 0-surgery is never covered by another surgery")
        if 2 in degrees and abs(slope.p) % 2 == 1:
            degrees.discard(2)
            reasons.append(f"no 2-fold covers: |H1| = {abs(slope.p)} is odd")
        for g in rec.fillings:
            if g.exceptional or g.slope == slope:
                continue
            matched = walk(g.volume, f.volume) & degrees
            if matched:
                rows.append(AuditRow(rec.name, str(g.slope), str(slope), tuple(sorted(matched)),
                                     "survivor", "volume matches a covering degree; not eliminated"))
        if degrees:
            rows.append(AuditRow(rec.name, "*", str(slope), tuple(sorted(degrees)), "survivor",
                                 "volume filter leaves candidate degrees; not eliminated"))
        else:
            rows.append(AuditRow(rec.name, "*", str(slope), (), "eliminated",
                                 "; ".join(reasons) if reasons else "no degree passes the volume filter"))
    return tuple(rows)


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


@st.composite
def audit_cases(draw):
    """A record over the short slopes of one of three cusps (with 0/1 and odd
    and even |p| among them) plus three long slopes, and a tolerance.  Each
    slope is missing, exceptional, a candidate base volume, or a volume at
    n * base + (-tol, 0 or tol) moved by -1, 0 or 1 ulp; volumes repeat."""
    shape = draw(st.sampled_from((complex(0.0, 2.0 * math.sqrt(3.0)), complex(0.5, 4.0), complex(-1.0, 3.0))))
    # a tolerance of 0.5 lets a base match itself at degree 2, which the
    # audit must skip
    tol = draw(st.sampled_from((0.0, 1e-4, 1e-2, 0.5)))
    vol_c = draw(st.floats(2.0, 6.0))
    bases = draw(st.lists(st.floats(0.05, 0.5).map(lambda r: r * vol_c), min_size=1, max_size=3))
    slopes = [s for s, _ in enumerate_short_slopes(normalize_cusp(shape), normalized_cutoff())
              if not s.is_infinity] + [Slope(97, 1), Slope(98, 1), Slope(-99, 2)]
    fillings = []
    for slope in slopes:
        kind = draw(st.sampled_from(("missing", "exc", "base", "match", "match", "match")))
        if kind == "missing":
            continue
        if kind == "exc":
            fillings.append(Filling(slope, None))
            continue
        volume = draw(st.sampled_from(bases))
        if kind == "match":
            n = draw(st.integers(1, 6))
            offset = draw(st.sampled_from((-tol, 0.0, tol)))
            volume = _ulps(n * volume + offset, draw(st.integers(-1, 1)))
        if 0 < volume < vol_c:
            fillings.append(Filling(slope, volume))
    return CuspRecord("r", shape, vol_c, tuple(draw(st.permutations(fillings)))), tol


@given(audit_cases())
def test_audit_matches_all_pairs_reference(case):
    rec, tol = case
    assert audit_knot(rec, tol).rows == reference_audit_rows(rec, tol)


@given(
    vol_base=st.floats(0.01, 3.0),
    n=st.integers(1, 40),
    offset=st.sampled_from((-1.0, 0.0, 1.0)),
    ulps=st.integers(-1, 1),
    tol=st.sampled_from((0.0, 1e-4, 1e-2, 0.5)),
)
def test_volume_cover_filter_matches_the_walk(vol_base, n, offset, ulps, tol):
    vol_complement = 5.0
    vol_cover = _ulps(n * vol_base + offset * tol, ulps)
    if not (vol_base < vol_complement and 0 < vol_cover < vol_complement):
        return
    walk, k = set(), 1
    while k * vol_base < vol_complement + tol:
        if abs(vol_cover - k * vol_base) <= tol:
            walk.add(k)
        k += 1
    assert _degree_bound(vol_base, vol_complement, tol) == k - 1
    assert filter_degrees(vol_cover, vol_base, vol_complement, tol) == walk


def seeded_census(records, seed, copies):
    """Copies of the fixture records with some fillings dropped, made
    exceptional, or given a volume near a multiple of a small filling's."""
    rng = random.Random(seed)
    out = []
    for rec in records:
        for c in range(copies):
            small = [rng.uniform(0.1, 0.45) * rec.volume_complement for _ in range(3)]
            fillings = []
            for f in rec.fillings:
                roll = rng.random()
                if roll < 0.1:
                    continue
                if roll < 0.2:
                    fillings.append(Filling(f.slope, None))
                elif roll < 0.4:
                    fillings.append(Filling(f.slope, rng.choice(small)))
                elif roll < 0.7:
                    volume = rng.randint(2, 5) * rng.choice(small) + rng.choice((0.0, 5e-5, -3e-3, 2e-2))
                    fillings.append(Filling(f.slope, volume if 0 < volume < rec.volume_complement else None))
                else:
                    fillings.append(f)
            out.append(CuspRecord(f"{rec.name}_{c}", rec.cusp_shape, rec.volume_complement, tuple(fillings)))
    return out


def test_audit_reports_are_pinned(census_records):
    # the digest is that of the all-pairs audit the bisect replaced, with the
    # rows of the -1 + 3i records in the exact order of the walk: on that
    # integer shape mirror slopes such as 8/1 and -6/1 have equal lengths and
    # come in (p, q) order, and so do -5/2, 1/3, 5/3 and 9/2, all of squared
    # length 85/3, where float lengths had put 9/2 second.  The synthetic
    # fixture lists its fillings in that order too, so its seeded copies
    # draw their rolls for 9/2, 1/3 and 5/3 in a new order.
    h = hashlib.sha256()
    for tol in (0.0, 1e-4, 1e-2):
        for rec in seeded_census(census_records, 7, 20):
            h.update(repr(audit_knot(rec, tol)).encode())
    assert h.hexdigest()[:16] == "709a5548229c1346"


def test_degree_limit_names_the_record_and_slope():
    rec = CuspRecord("m004", complex(0.0, 2.0 * math.sqrt(3.0)), 2.0298832128193,
                     (Filling(Slope(5, 1), 1e-9), Filling(Slope(-5, 1), 0.9813688288922)))
    with pytest.raises(DegreeLimitError, match=r"^m004: base slope 5/1: .*limit of 1,000"):
        audit_knot(rec)
    limit_volume = 2.0 / MAX_CANDIDATE_DEGREES
    with pytest.raises(DegreeLimitError):
        _degree_bound(limit_volume / 2, 2.0, 1e-4)
    assert filter_degrees(2 * limit_volume, limit_volume, 2.0, 0.0) == {2}


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
    with pytest.raises(ValueError, match="y: degenerate cusp shape .*overflows a float"):
        parse_census_line("y 1e300 1e-300 2.0 5 1 0.9")  # l = s / sqrt(Im s) overflows
    # one slope with two volumes, here 5/1 (which hid its degree-2 match
    # under -5/1) and -5/1 written as 5 -1
    with pytest.raises(ValueError, match="d: slope 5/1 is listed twice"):
        parse_census_line("d 0.0 3.46 2.03 5 1 0.9813688 5 1 1.9627376 -5 1 1.9627376")
    with pytest.raises(ValueError, match="e: slope -5/1 is listed twice"):
        parse_census_line("e 0.0 3.46 2.03 -5 1 0.9813688 5 -1 1.9627376")
    # 1/0 fills to S^3, which is never hyperbolic: no volume may sit there
    # (it used to survive the audit as a degree-2 cover of 6/1)
    with pytest.raises(ValueError, match="inf: slope 1/0 gives S"):
        parse_census_line("inf 0.0 3.4641016151377544 2.0298832128193 6 1 0.9813688 1 0 1.9627376")
    with pytest.raises(ValueError, match="slope 1/0"):
        parse_census_line("neg 0.0 3.46 2.03 -1 0 1.5")
    assert parse_census_line("exc 0.0 3.46 2.03 1 0 EXC").fillings[0].exceptional


@pytest.mark.parametrize("token, volume, message", [
    ("0.98", 0.98, None), ("9.8e-1", 0.98, None), ("0.5", 0.5, None),
    ("EXC", None, None), ("exc", None, None), ("eXc", None, None),
    ("nan", None, "x: non-finite number 'nan'"), ("-Infinity", None, "x: non-finite number '-Infinity'"),
    ("EXCX", None, "could not convert string to float: 'EXCX'"),
    ("1.0.0", None, "could not convert string to float: '1.0.0'"),
])
def test_a_filling_volume_token_is_a_number_or_exc(token, volume, message):
    # EXC is tested for only on 3-character tokens, where it used to be
    # tested on every token: the same tokens load and the same messages
    # refuse the rest.  On 1/0 only EXC loads; a number is refused as S^3's.
    for p, q in ((5, 1), (1, 0)):
        line = f"x 0.0 3.46 2.03 {p} {q} {token}"
        if message is None and (volume is None or q):
            assert parse_census_line(line).fillings == (Filling(Slope(p, q), volume),)
        else:
            with pytest.raises(ValueError) as info:
                parse_census_line(line)
            assert str(info.value) == (message or "x: slope 1/0 gives S^3, which has no volume")


def test_a_skewed_census_line_loads_and_audits():
    # refused as too skewed for float lengths while the walk was in floats
    rec = parse_census_line("y 0.3 1e-300 2.0 5 1 0.9")
    assert rec.cusp == normalize_cusp(rec.cusp_shape)
    assert audit_knot(rec).rows == (
        AuditRow("y", "*", "-5404319552844595/18014398509481984", (), "unmeasured", "no filling data"),)


def test_the_record_keeps_its_normalized_cusp():
    rec = fig8_record()
    assert rec.cusp == normalize_cusp(rec.cusp_shape)
    assert "cusp=" not in repr(rec)
    twin = CuspRecord(rec.name, rec.cusp_shape, rec.volume_complement, rec.fillings)
    object.__setattr__(twin, "cusp", normalize_cusp(1j))
    assert twin == rec and hash(twin) == hash(rec)


def test_the_record_keeps_its_slope_index_through_pickle_copy_and_replace():
    # the pass that rejects a slope listed twice builds the {slope: position}
    # index audit_knot reads, so every way of getting a record carries one
    rec = parse_census_line("x 0.0 3.46 2.03 5 1 0.98 -3 -1 EXC 0 1 1.2 1 0 EXC")
    want = {f.slope: i for i, f in enumerate(rec.fillings)}
    assert rec.slope_index == want and list(want) == [Slope(5, 1), Slope(3, 1), Slope(0, 1), Slope(1, 0)]
    assert all(s is f.slope for s, f in zip(rec.slope_index, rec.fillings))
    assert "slope_index" not in repr(rec)
    twin = CuspRecord(rec.name, rec.cusp_shape, rec.volume_complement, rec.fillings)
    object.__setattr__(twin, "slope_index", {})
    assert twin == rec and hash(twin) == hash(rec) and repr(twin) == repr(rec)
    for other in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec), replace(rec)):
        assert other == rec and other.slope_index == want
        assert audit_knot(other) == audit_knot(rec)
    moved = replace(rec, fillings=rec.fillings[::-1])
    assert moved.slope_index == {f.slope: i for i, f in enumerate(moved.fillings)} != want
    # a repeated slope is still refused at its first repeat, after the volume
    # checks of the entries before it and of the repeat itself
    for line, message in [
        ("d 0.0 3.46 2.03 5 1 0.98 5 1 1.96 -5 1 1.96 1 0 1.5", "d: slope 5/1 is listed twice"),
        ("d 0.0 3.46 2.03 5 1 0.98 -5 1 0.5 5 -1 0.7 5 1 0.6", "d: slope -5/1 is listed twice"),
        ("d 0.0 3.46 2.03 5 1 0.98 1 0 1.5 5 1 1.96", "d: slope 1/0 gives S^3, which has no volume"),
        ("d 0.0 3.46 2.03 5 1 0.98 5 1 9.0", "d: filling 5/1 volume 9.0 not in (0, 2.03)"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_census_line(line)
        assert str(err.value) == message


def test_read_census_and_audit_build_the_values_the_public_constructors_build(census_file):
    # the reader and the audit build Filling and AuditRow with tuple.__new__;
    # the last record gives the audit's eight kinds of row
    with open(census_file, "a") as fh:
        fh.write("m 0.0 3.4641016151377544 2.0298832128193 4 1 0.5 -5 1 1.0 0 1 0.6 3 1 EXC "
                 "2 1 0.7 1 1 1.01 -2 1 1.0150216 6 1 1.9\n")
    records, errors = read_census(census_file)
    assert errors == [] and len(records) == 4
    rows = [row for rec in records for row in audit_knot(rec).rows]
    kinds = {(r.status, r.cover_slope == "*", r.reason[:20]) for r in audit_knot(records[-1]).rows}
    assert len(kinds) == 8
    fillings = [f for rec in records for f in rec.fillings]
    assert any(f.exceptional for f in fillings) and any(not f.exceptional for f in fillings)
    built = [Filling(f.slope, f.volume) for f in fillings] + [AuditRow(*r) for r in rows]
    for value, public in zip(fillings + rows, built):
        assert type(value) is type(public) and value._asdict() == public._asdict()
        assert value == public and hash(value) == hash(public) and repr(value) == repr(public)
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == public and hash(back) == hash(public)


def test_filling_and_audit_row_value_types():
    f = Filling(Slope(-3, -1), 0.5)
    assert repr(f) == "Filling(slope=Slope(p=3, q=1), volume=0.5)"
    assert (f.slope, f.volume) == (Slope(3, 1), 0.5) and not f.exceptional
    e = Filling(Slope(0, 1))
    assert repr(e) == "Filling(slope=Slope(p=0, q=1), volume=None)"
    assert e.volume is None and e.exceptional and Filling(Slope(0, 1), None).exceptional
    assert f == Filling(Slope(3, 1), 0.5) and hash(f) == hash(Filling(Slope(3, 1), 0.5))
    assert f != e and f != Filling(Slope(3, 1), 0.25)
    row = AuditRow("4_1", "*", "5/1", (2, 3), "survivor", "not eliminated")
    assert repr(row) == ("AuditRow(knot='4_1', cover_slope='*', base_slope='5/1', degrees=(2, 3), "
                         "status='survivor', reason='not eliminated')")
    assert (row.knot, row.cover_slope, row.base_slope, row.degrees, row.status, row.reason) == tuple(row)
    assert row == AuditRow("4_1", "*", "5/1", (2, 3), "survivor", "not eliminated")
    assert row != AuditRow("4_1", "*", "5/1", (2,), "survivor", "not eliminated")
    for value in (f, e, row):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value and repr(back) == repr(value)
        with pytest.raises(AttributeError):
            value.extra = 1  # no per-instance dict


def test_audit_finds_a_slope_written_with_negative_q(tmp_path):
    # -3 -1 is the slope 3/1: the audit must find its volume, not report the
    # short slope 3/1 as unmeasured
    path = tmp_path / "census.txt"
    path.write_text("a 0.0 3.4641016151377544 2.0298832128193 -3 -1 0.5 0 1 EXC\n")
    (rec,), errors = read_census(str(path))
    assert errors == [] and rec.fillings[0].slope == Slope(3, 1)
    rows = audit_knot(rec).rows
    assert [r for r in rows if r.base_slope == "3/1"] == [
        AuditRow("a", "*", "3/1", (3, 4), "survivor", "volume filter leaves candidate degrees; not eliminated")]
    assert [r.status for r in rows if r.base_slope == "0/1"] == ["exceptional"]


def test_read_census_collects_errors(tmp_path, census_records):
    from conftest import census_text

    path = tmp_path / "census.txt"
    path.write_text(census_text(census_records) + "broken line here\n")
    records, errors = read_census(str(path))
    assert len(records) == len(census_records)
    assert len(errors) == 1


def test_read_census_shares_one_slope_per_pair(tmp_path):
    path = tmp_path / "census.txt"
    path.write_text("a 0.0 3.46 2.03 5 1 0.98 0 1 EXC\n"
                    "b 0.1 3.0 2.5 5 1 1.1 5 -1 1.2\n"
                    "c 0.0 3.46 2.03 3 1 0.9 10 2 1.0\n"
                    "d 0.2 2.0 2.5 -5 1 1.3\n"
                    "e 0.0 3.46 2.03 10 2 1.0\n")
    records, errors = read_census(str(path))
    a, b, d = records
    # both records that list 5 1 hold the same Slope object
    assert a.fillings[0].slope is b.fillings[0].slope == Slope(5, 1)
    # 5 -1 and a later -5 1 are built from different pairs but are equal
    assert b.fillings[1].slope == d.fillings[0].slope == Slope(-5, 1)
    # an unreduced pair is a line error on every line that lists it, after
    # the earlier lines filled the table with other slopes
    assert errors == ["line 3: slope 10/2 is not reduced", "line 5: slope 10/2 is not reduced"]


def test_read_census_still_rejects_a_slope_listed_twice(tmp_path):
    path = tmp_path / "census.txt"
    path.write_text("a 0.0 3.46 2.03 5 -1 0.98\n"
                    "b 0.0 3.46 2.03 5 -1 0.98 -5 1 1.2\n")
    records, errors = read_census(str(path))
    assert [rec.name for rec in records] == ["a"]
    assert errors == ["line 2: b: slope -5/1 is listed twice"]


def test_read_census_skips_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "census.txt"
    path.write_bytes(b"a 0.0 3.46 2.03 5 1 0.98\n\xff\xfe bad\n"
                     + "bé 0.0 3.46 2.03 5 1 0.98  # café\n".encode())
    records, errors = read_census(str(path))
    assert [rec.name for rec in records] == ["a", "bé"]
    assert errors == ["line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"]


def test_read_census_line_endings(tmp_path):
    # a lone \r ends a line, as in text mode, and \r\n is one line end
    path = tmp_path / "census.txt"
    path.write_bytes(b"a 0.0 3.46 2.03 5 1 0.98\rb 0.0 3.46 2.03 5 1 0.98\r\r"
                     b"c 1 2\r\nd 0.0 3.46 2.03 5 1 0.98\n\ne")
    records, errors = read_census(str(path))
    assert [rec.name for rec in records] == ["a", "b", "d"]
    assert [err.split(":")[0] for err in errors] == ["line 4", "line 7"]
