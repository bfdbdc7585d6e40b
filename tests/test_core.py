import copy
import pickle
import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehncover.core import (
    LensRegimeError,
    LensSpace,
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    euler_number,
    h1_order,
    is_loeschian,
    is_two_square,
    lens_covers,
    mirror,
    normalize,
    parse_seifert,
    sfs_to_lens,
    sfs_equivalent,
)
from dehncover.sfscover import fiberwise_lift


def random_seifert(rng, nfibers=None, max_order=12):
    nf = rng.randint(0, 4) if nfibers is None else nfibers
    fibers = []
    for _ in range(nf):
        a = rng.randint(1, max_order)
        if a == 1:
            be = rng.randint(-12, 12)
        else:
            be = rng.choice([x for x in range(-2 * a, 2 * a + 1) if gcd(x, a) == 1])
        fibers.append((a, be))
    return SeifertInvariants(rng.randint(-5, 5), tuple(fibers))


# --- construction and parsing


def test_slope_normalization():
    assert Slope(-3, -2) == Slope(3, 2)
    assert Slope(-1, 0) == Slope(1, 0)
    assert Slope(1, 0).is_infinity
    with pytest.raises(ValueError):
        Slope(6, 2)
    with pytest.raises(ValueError):
        Slope(5, 0)


def test_torus_knot_validation():
    with pytest.raises(ValueError):
        TorusKnot(2, 4)
    with pytest.raises(ValueError):
        TorusKnot(1, 3)


def test_slope_and_knot_value_types():
    slopes = [Slope(3, 1), Slope(-3, -2), Slope(p=-7, q=2), Slope(1, 0), Slope(0, 1)]
    knots = [TorusKnot(2, 3), TorusKnot(r=5, s=3)]
    assert [repr(v) for v in slopes + knots] == [
        "Slope(p=3, q=1)", "Slope(p=3, q=2)", "Slope(p=-7, q=2)", "Slope(p=1, q=0)",
        "Slope(p=0, q=1)", "TorusKnot(r=2, s=3)", "TorusKnot(r=5, s=3)",
    ]
    assert [str(v) for v in slopes + knots] == ["3/1", "3/2", "-7/2", "1/0", "0/1", "T(2,3)", "T(5,3)"]
    for v in slopes + knots:
        assert hash(v) == hash(tuple(v))
        assert v == tuple(v)  # the documented tuple caveat
        for clone in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert clone == v and type(clone) is type(v) and repr(clone) == repr(v)
    assert Slope(3, 1).p == 3 and Slope(3, 1).q == 1
    assert TorusKnot(5, 3).r == 5 and TorusKnot(5, 3).s == 3
    assert sorted(slopes) == [Slope(-7, 2), Slope(0, 1), Slope(1, 0), Slope(3, 1), Slope(3, 2)]
    assert Slope(p=-3, q=-2) == Slope(3, 2)
    assert Slope(1, 0) == Slope(-1, 0) == (1, 0)
    assert Slope(-1, 0).is_infinity and not Slope(0, 1).is_infinity
    with pytest.raises(ValueError, match="slope 6/2 is not reduced"):
        Slope(6, 2)
    with pytest.raises(ValueError, match="slope -5/0 is not reduced"):
        Slope(-5, 0)
    with pytest.raises(ValueError, match="not a knot"):
        TorusKnot(4, 6)
    with pytest.raises(ValueError, match="no unknots"):
        TorusKnot(3, 1)
    # _make and _replace would skip the normalisation, so no code may use them
    src = Path(__file__).resolve().parents[1] / "src" / "dehncover"
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "._make(" not in text and "._replace(" not in text, path.name


def test_parse_and_emit_roundtrip():
    text = "{-2;(2,1),(5,3),(32,29)}"
    M = parse_seifert(text)
    assert str(M) == text
    assert parse_seifert(" { -2 ; (2,1), (5,3) ,(32,29) } ") == M
    assert str(parse_seifert("{0;}")) == "{0;}"
    with pytest.raises(ValueError):
        parse_seifert("{1;(2,1)")
    with pytest.raises(ValueError):
        SeifertInvariants(0, ((4, 2),))


def test_orbifold_drops_order_one():
    assert Orbifold2((1, 3, 2)).cone_orders == (2, 3)
    assert Orbifold2(()).padded(3) == (1, 1, 1)
    with pytest.raises(ValueError):
        Orbifold2((0, 2))


# --- normalize / mirror


def test_normalize_worked_example():
    M = parse_seifert("{4;(1,1),(1,1),(1,1),(3,1),(1,2),(3,2)}")
    assert normalize(M) == parse_seifert("{9;(3,1),(3,2)}")


def test_normalize_trivial_and_shift():
    assert normalize(parse_seifert("{0;}")) == parse_seifert("{0;}")
    assert normalize(parse_seifert("{-2;(2,1),(5,-3),(32,29)}")) == parse_seifert(
        "{-3;(2,1),(5,2),(32,29)}"
    )


def test_mirror_worked_example():
    assert mirror(parse_seifert("{-2;(2,1),(5,3),(32,29)}")) == parse_seifert(
        "{-1;(2,1),(5,2),(32,3)}"
    )
    assert mirror(parse_seifert("{0;}")) == parse_seifert("{0;}")


def test_normalize_mirror_properties():
    rng = random.Random(20260811)
    for _ in range(300):
        M = random_seifert(rng)
        N = normalize(M)
        assert normalize(N) == N
        assert h1_order(N) == h1_order(M)
        assert euler_number(N) == euler_number(M)
        assert mirror(mirror(M)) == N
        assert euler_number(mirror(M)) == -euler_number(M)
        assert h1_order(mirror(M)) == h1_order(M)


# --- homology and euler number


def test_h1_order_examples():
    assert h1_order(parse_seifert("{1;(2,1),(3,1),(3,2)}")) == 45
    assert h1_order(parse_seifert("{-2;(2,1),(5,3),(32,29)}")) == 2
    # |-30 + 15 + 10 + 6| = 1
    assert h1_order(parse_seifert("{-1;(2,1),(3,1),(5,1)}")) == 1


def test_euler_number_examples():
    assert euler_number(parse_seifert("{1;(2,1),(3,1),(3,2)}")) == Fraction(-5, 2)
    assert euler_number(parse_seifert("{0;}")) == 0
    assert euler_number(parse_seifert("{9;(3,1),(3,2)}")) == -10


def _reference_euler_number(M):
    return -(Fraction(M.b) + sum((Fraction(be, a) for a, be in M.fibers), Fraction(0)))


def _reference_h1_order(M):
    total = _reference_euler_number(M)
    for a, _ in M.fibers:
        total *= a
    assert total.denominator == 1
    return abs(int(total))


def _reference_fiberwise_lift(M, d):
    lifted = tuple((a, (pow(d, -1, a) * be) % a) for a, be in M.fibers)
    total = -_reference_euler_number(M) / d - sum(
        (Fraction(bt, a) for a, bt in lifted), Fraction(0)
    )
    if total.denominator != 1:
        return None
    return SeifertInvariants(int(total), lifted)


@st.composite
def seifert_invariants(draw):
    fibers = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(1, 30))
        be = draw(st.sampled_from([x for x in range(-2 * a, 2 * a + 1) if gcd(x, a) == 1]))
        fibers.append((a, be))
    return SeifertInvariants(draw(st.integers(-50, 50)), tuple(fibers))


@given(seifert_invariants(), st.integers(1, 60))
def test_integer_euler_arithmetic_matches_fractions(M, d):
    assert h1_order(M) == _reference_h1_order(M)
    assert euler_number(M) == _reference_euler_number(M)
    if any(gcd(d, a) != 1 for a, _ in M.fibers):
        with pytest.raises(ValueError):
            fiberwise_lift(M, d)
    else:
        assert fiberwise_lift(M, d) == _reference_fiberwise_lift(M, d)


def test_h1_equals_alpha_product_times_euler():
    rng = random.Random(99)
    for _ in range(300):
        M = random_seifert(rng, nfibers=3)
        prod = 1
        for a, _ in M.fibers:
            prod *= a
        assert abs(prod * euler_number(M)) == h1_order(M)


# --- equivalence of small SFS


def test_sfs_equivalent_mirror_pair():
    assert sfs_equivalent(
        parse_seifert("{-2;(2,1),(5,3),(32,29)}"),
        parse_seifert("{-1;(2,1),(5,2),(32,3)}"),
    )


def test_sfs_equivalent_reflexive_and_distinct():
    M = parse_seifert("{-1;(4,1),(7,5),(7,4)}")
    assert sfs_equivalent(M, M)
    assert not sfs_equivalent(M, parse_seifert("{-1;(4,1),(7,5),(7,1)}"))


def test_sfs_equivalent_rejects_lens_regime():
    with pytest.raises(LensRegimeError):
        sfs_equivalent(parse_seifert("{9;(3,1),(3,2)}"), parse_seifert("{9;(3,1),(3,2)}"))


# --- lens spaces


def test_lens_canonicalization():
    assert LensSpace(90, -29) == LensSpace(90, 29)
    assert LensSpace(-5, 2) == LensSpace(5, -2)
    assert LensSpace(0, -1) == LensSpace(0, 1)
    assert LensSpace(1, 7) == LensSpace(1, 0)
    with pytest.raises(ValueError):
        LensSpace(6, 2)


def test_sfs_to_lens_worked_example():
    assert sfs_to_lens(parse_seifert("{9;(3,1),(3,2)}")) == LensSpace(90, -29)


def test_sfs_to_lens_no_exceptional_fibers():
    for b in (-3, 0, 1, 5):
        assert sfs_to_lens(SeifertInvariants(b)) == LensSpace(abs(b), 1)
    assert sfs_to_lens(SeifertInvariants(0)) == LensSpace(0, 1)


def test_sfs_to_lens_rejects_three_fibers():
    with pytest.raises(LensRegimeError):
        sfs_to_lens(parse_seifert("{3;(5,2),(5,3),(2,1)}"))


def test_sfs_to_lens_respects_h1():
    rng = random.Random(7)
    for _ in range(300):
        M = random_seifert(rng, nfibers=rng.randint(0, 2))
        assert sfs_to_lens(M).p == h1_order(M)


def test_lens_equivalent_examples():
    # LensSpace stores the canonical q, so equivalent presentations compare
    # equal: 3 = -2^-1 mod 7 and 4 = -1 mod 5
    assert LensSpace(7, 2) == LensSpace(7, 3)
    assert LensSpace(5, 4) == LensSpace(5, 1)
    assert LensSpace(7, 1) != LensSpace(7, 2)
    L = LensSpace(13, 5)
    assert L == L


def test_lens_equivalence_relation_and_classification():
    # canonicalization must identify exactly the orbit {+-q^{+-1} mod p}
    for p in range(2, 51):
        units = [q for q in range(1, p) if gcd(q, p) == 1]
        canon = {q: LensSpace(p, q) for q in units}
        for q1 in units:
            orbit = {q1 % p, (-q1) % p, pow(q1, -1, p), (-pow(q1, -1, p)) % p}
            for q2 in units:
                assert (canon[q1] == canon[q2]) == (q2 % p in orbit)
        # equivalence axioms on the canonical representatives
        for q1 in units:
            assert canon[q1] == canon[q1]
            for q2 in units:
                if canon[q1] == canon[q2]:
                    assert canon[q2] == canon[q1]


def test_lens_covers():
    assert lens_covers(LensSpace(5, 1), LensSpace(90, -29)) == 18
    assert lens_covers(LensSpace(7, 1), LensSpace(5, 1)) is None
    L = LensSpace(12, 5)
    assert lens_covers(L, L) == 1
    # q-compatibility matters without the common-knot context
    assert lens_covers(LensSpace(5, 1), LensSpace(25, 7)) is None
    assert lens_covers(LensSpace(5, 2), LensSpace(25, 7)) == 5


# --- quadratic forms


def test_quadratic_form_examples():
    assert is_loeschian(7)
    assert is_loeschian(49)
    assert not is_two_square(3)
    assert is_loeschian(1)
    assert is_two_square(1) and is_two_square(2)
    with pytest.raises(ValueError):
        is_loeschian(0)


def test_quadratic_forms_match_the_double_loop():
    # the O(sqrt n) tests solve for y; the reference tries every pair
    # 0 <= x, y <= sqrt(n), as the tests did before
    for n in range(1, 3001):
        r = isqrt(n)
        pairs = [(x, y) for x in range(r + 1) for y in range(r + 1)]
        assert is_loeschian(n) == any(x * x + x * y + y * y == n for x, y in pairs), n
        assert is_two_square(n) == any(x * x + y * y == n for x, y in pairs), n


def test_loeschian_multiplicative_closure():
    loes = [n for n in range(1, 201) if is_loeschian(n)]
    for a in loes:
        for b in loes:
            if a * b <= 200:
                assert is_loeschian(a * b), (a, b)


def test_known_small_values():
    assert [n for n in range(1, 10) if is_loeschian(n)] == [1, 3, 4, 7, 9]
    assert [n for n in range(1, 10) if is_two_square(n)] == [1, 2, 4, 5, 8, 9]
