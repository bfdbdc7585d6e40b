from math import gcd

import pytest

from dehncover.core import (
    LensSpace,
    SeifertInvariants,
    Slope,
    TorusKnot,
    h1_order,
    normalize,
    parse_seifert,
    sfs_equivalent,
    sfs_to_lens,
)
from dehncover.surgery import (
    LENS,
    REDUCIBLE,
    SFS,
    classify_surgery,
    find_surgery_slopes,
    slope_candidates,
    surgery_seifert_invariants,
)

K23 = TorusKnot(2, 3)
K25 = TorusKnot(2, 5)
K47 = TorusKnot(4, 7)


def scan_pairs():
    return [(r, s) for r in range(2, 8) for s in range(r + 1, 8) if gcd(r, s) == 1]


# --- classification


def test_classify_sfs_example():
    cl = classify_surgery(K23, Slope(45, 7))
    assert cl.kind == SFS and cl.n == 3
    assert cl.base_orbifold().cone_orders == (2, 3, 3)
    assert cl.invariants == parse_seifert("{1;(2,1),(3,1),(3,2)}")


def test_classify_reducible():
    cl = classify_surgery(K23, Slope(6, 1))
    assert cl.kind == REDUCIBLE and cl.summands == ((2, 3), (3, 2))


def test_classify_lens():
    cl = classify_surgery(K23, Slope(5, 1))
    assert cl.kind == LENS and cl.lens == LensSpace(5, 1)


def test_classify_t25_example():
    cl = classify_surgery(K25, Slope(-2, 3))
    assert cl.kind == SFS
    assert cl.base_orbifold().cone_orders == (2, 5, 32)
    assert h1_order(cl.invariants) == 2


def test_base_orbifold_is_built_with_the_classification():
    # every SFS surgery of the exceptional-scan box keeps the base orbifold
    # its invariants present, built once; other kinds have none
    count = 0
    for r, s in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        K = TorusKnot(r, s)
        for p in range(-36, 37):
            for q in range(1, 5):
                if gcd(p, q) != 1:
                    continue
                cl = classify_surgery(K, Slope(p, q))
                if cl.kind != SFS:
                    with pytest.raises(ValueError):
                        cl.base_orbifold()
                    continue
                assert cl.base_orbifold() == cl.invariants.base_orbifold()
                assert cl.base_orbifold().cone_orders == tuple(sorted((r, s, cl.n)))
                assert cl.base_orbifold() is cl.base_orbifold()
                count += 1
    assert count == 935


def test_classify_rejects_infinity():
    with pytest.raises(ValueError):
        classify_surgery(K23, Slope(1, 0))


# --- Seifert invariants of surgeries


def test_invariants_worked_examples():
    assert sfs_equivalent(
        surgery_seifert_invariants(K47, Slope(105, 4)),
        parse_seifert("{-1;(4,1),(7,5),(7,4)}"),
    )
    assert sfs_equivalent(
        surgery_seifert_invariants(K47, Slope(21, 1)),
        parse_seifert("{-1;(4,1),(7,5),(7,1)}"),
    )
    assert sfs_equivalent(
        surgery_seifert_invariants(K25, Slope(-2, 3)),
        parse_seifert("{-2;(2,1),(5,3),(32,29)}"),
    )
    assert surgery_seifert_invariants(K23, Slope(1, 1)) == parse_seifert(
        "{-1;(2,1),(3,1),(5,1)}"
    )


def test_invariants_reject_lens_regime():
    with pytest.raises(ValueError):
        surgery_seifert_invariants(K23, Slope(5, 1))


def test_knot_parameter_order_is_immaterial():
    assert surgery_seifert_invariants(TorusKnot(7, 4), Slope(105, 4)) == (
        surgery_seifert_invariants(K47, Slope(105, 4))
    )


def test_surgery_conformance_scan():
    # h1 = |p| and fiber orders {r, s, n} across the whole scan
    for r, s in scan_pairs():
        K = TorusKnot(r, s)
        for p in range(-60, 61):
            for q in range(1, 9):
                if gcd(p, q) != 1:
                    continue
                n = abs(r * s * q - p)
                if n < 2:
                    continue
                M = surgery_seifert_invariants(K, Slope(p, q))
                assert h1_order(M) == abs(p)
                assert sorted(a for a, _ in M.fibers) == sorted((r, s, n))


def test_connected_sum_iff_p_equals_rsq():
    for r, s in scan_pairs():
        K = TorusKnot(r, s)
        for p in range(-60, 61):
            for q in range(1, 9):
                if gcd(p, q) != 1:
                    continue
                cl = classify_surgery(K, Slope(p, q))
                assert (cl.kind == REDUCIBLE) == (p == r * s * q)


def test_lens_surgeries_have_p_congruent_pm1():
    # on T(2,s) every lens surgery has p = +-1 mod 2s
    for s in (3, 5, 7, 9):
        K = TorusKnot(2, s)
        for p in range(-60, 61):
            for q in range(1, 9):
                if gcd(p, q) != 1:
                    continue
                if classify_surgery(K, Slope(p, q)).kind == LENS:
                    assert p % (2 * s) in (1, 2 * s - 1)


# --- realization search


def test_find_surgery_slopes_fiberwise_family():
    # degree-11 member of the -2/3 family is realized at -22/1
    target = normalize(parse_seifert("{-22;(2,11),(5,33),(32,319)}"))
    assert find_surgery_slopes(K25, target) == [Slope(-22, 1)]


def test_degree6_family_member_is_not_a_surgery():
    # the would-be degree-6 member has h1 = 12 over S^2(2,5,32); its only
    # slope candidate p = -12 forces q = 2, which is not a reduced slope
    assert slope_candidates(K25, 32, 12) == []
    # and its fiber pair (2,6) is not even a valid presentation
    with pytest.raises(ValueError):
        SeifertInvariants(-12, ((2, 6), (5, 18), (32, 174)))


def test_round_trip_classified_surgeries_are_recovered():
    for r, s in [(2, 3), (2, 5), (3, 4), (4, 7)]:
        K = TorusKnot(r, s)
        for p in range(-20, 21):
            for q in range(1, 4):
                if gcd(p, q) != 1:
                    continue
                cl = classify_surgery(K, Slope(p, q))
                if cl.kind != SFS:
                    continue
                assert Slope(p, q) in find_surgery_slopes(K, cl.invariants)


def test_find_surgery_slopes_lens_roundtrip():
    for K in (K23, TorusKnot(3, 4)):
        for q in range(1, 6):
            for p in (K.r * K.s * q - 1, K.r * K.s * q + 1):
                if gcd(p, q) != 1:
                    continue
                cl = classify_surgery(K, Slope(p, q))
                assert Slope(p, q) in find_surgery_slopes(K, cl.lens)


def test_find_surgery_slopes_lens_q_is_pinned():
    # |p| = 197 and |6q - p| = 1 force q = 33, however large
    assert find_surgery_slopes(K23, LensSpace(197, 100)) == [Slope(197, 33)]


def test_find_surgery_slopes_zero_surgery():
    M0 = surgery_seifert_invariants(K23, Slope(0, 1))
    assert h1_order(M0) == 0
    assert find_surgery_slopes(K23, M0) == [Slope(0, 1)]


def test_lens_targets_with_equal_fiber_orders_are_never_realized():
    # lens spaces fibering over S^2(d,d) have h1 divisible by d, but lens
    # surgeries on T(2,s) have p coprime to 2s; no realization exists
    for s in (3, 5, 7):
        K = TorusKnot(2, s)
        for d in [d for d in range(2, s + 1) if s % d == 0]:
            for b in (-1, 0, 2):
                for be in range(1, d):
                    if gcd(be, d) != 1:
                        continue
                    M = SeifertInvariants(b, ((d, be), (d, 1)))
                    assert find_surgery_slopes(K, sfs_to_lens(M)) == []
