from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, prod

import pytest

from dehncover.core import (
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    euler_number,
    h1_order,
    is_loeschian,
    normalize,
    parse_seifert,
    sfs_equivalent,
)
from dehncover.surgery import SFS, classify_surgery, surgery_seifert_invariants
from dehncover import sfscover
from dehncover.orbcover import (
    ORACLE_BUDGET,
    UNCONSTRAINED,
    DegreeSet,
    PartitionSystem,
    _covers_by_degree,
    classify_cover,
    partition_systems,
)
from dehncover.sfscover import (
    CHI_MISMATCH,
    GCD_CONDITION,
    H1_DIVISIBILITY,
    NO_ORBIFOLD_COVER,
    LENS_DIVISIBILITY,
    RANK,
    REDUCIBILITY,
    _EXCLUDED_KNOTS,
    _NO_CHI_MISMATCH,
    _chi_zero_degree,
    _lens_candidate_bases,
    _oracle_witness,
    CoverDecision,
    decide_cover,
    decide_cover_directed,
    decide_pair,
    fiberwise_lift,
    fiberwise_quotient,
    pullback,
    torus_main_fastpath,
)
from conftest import chi_fraction

K23 = TorusKnot(2, 3)
K25 = TorusKnot(2, 5)
K47 = TorusKnot(4, 7)
K57 = TorusKnot(5, 7)

# A partition system written with every part, unbranched ones included.  Its
# repr is the one a PartitionSystem had when it stored them all, which the
# pinned scan digest hashes.
_FullPartitions = namedtuple("PartitionSystem", "degree base_orders partitions")


# --- fiberwise covers


def test_fiberwise_quotient_family():
    M = parse_seifert("{-2;(2,1),(5,3),(32,29)}")
    for d in (1, 3, 7, 11):
        Q = fiberwise_quotient(M, d)
        assert Q == normalize(
            SeifertInvariants(-2 * d, ((2, d), (5, 3 * d), (32, 29 * d)))
        )
        assert h1_order(Q) == d * h1_order(M)
        assert euler_number(Q) == d * euler_number(M)
    assert fiberwise_quotient(M, 1) == normalize(M)


def test_fiberwise_quotient_gcd_error():
    with pytest.raises(ValueError):
        fiberwise_quotient(parse_seifert("{0;(2,1),(3,1)}"), 2)


def test_fiberwise_lift_regression():
    # solving the congruences by hand: the degree-5 lift exists
    assert fiberwise_lift(parse_seifert("{1;(2,1),(3,1),(3,2)}"), 5) == parse_seifert(
        "{-1;(2,1),(3,1),(3,2)}"
    )
    M = parse_seifert("{-3;(2,1),(5,2),(32,29)}")
    assert fiberwise_lift(M, 1) == normalize(M)


def test_fiberwise_roundtrip():
    M = parse_seifert("{-1;(2,1),(5,2),(32,1)}")
    for d in (3, 7, 9, 11, 13):
        lifted = fiberwise_lift(M, d)
        if lifted is not None:
            assert sfs_equivalent(fiberwise_quotient(lifted, d), M)


def test_fiberwise_lift_nonexistence():
    # degree 7: the forced beta lifts make b fractional (-16/14), so no cover
    assert fiberwise_lift(parse_seifert("{1;(2,1),(3,1),(3,2)}"), 7) is None


# --- pullback covers


def test_pullback_worked_example():
    M = parse_seifert("{1;(2,1),(3,1),(3,2)}")
    sys = partition_systems(Orbifold2((3, 3)), Orbifold2((2, 3, 3)), 4)[0]
    P = pullback(M, sys)
    assert P == parse_seifert("{9;(3,1),(3,2)}")
    assert euler_number(P) == 4 * euler_number(M) == Fraction(-10)


def test_pullback_trivial():
    M = parse_seifert("{-2;(2,1),(5,3),(32,29)}")
    sys = partition_systems(Orbifold2((2, 5, 32)), Orbifold2((2, 5, 32)), 1)[0]
    assert pullback(M, sys) == normalize(M)


def test_pullback_euler_multiplicativity():
    M = parse_seifert("{-1;(2,1),(3,2),(6,1)}")
    for n in (1, 3, 4, 7):
        for sys in partition_systems(Orbifold2((2, 3, 6)), Orbifold2((2, 3, 6)), n):
            assert euler_number(pullback(M, sys)) == n * euler_number(M)
    # every candidate (d, C) the decision tries for the SFS surgeries on the
    # knots with exceptional orbifold covers: along each of its systems the
    # pullback has fiber orders exactly C and |H_1| = d |p| prod(C) / prod(B),
    # which decide_cover_directed checks once per candidate
    checked = Counter()
    for r, s in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        K = TorusKnot(r, s)
        slopes = [Slope(p, q) for p in range(-12, 13) for q in (1, 2) if gcd(p, q) == 1]
        sfs = [(sl, cl) for sl, cl in ((sl, classify_surgery(K, sl)) for sl in slopes) if cl.kind == SFS]
        cover_bases = {cl.base_orbifold() for _, cl in sfs}
        for slope, cl in sfs:
            M, B = cl.invariants, cl.base_orbifold()
            for C in cover_bases | set(_lens_candidate_bases(B)):
                degs = classify_cover(C, B)
                if chi_fraction(B) == 0:  # one degree per cover slope
                    admitted = {_chi_zero_degree(abs(c.p), abs(slope.p)) for c, _ in sfs if c.p}
                    admitted = [d for d in admitted if d in degs]
                else:
                    admitted = degs.finite
                for d in admitted:
                    for sys in partition_systems(C, B, d):
                        P = pullback(M, sys)
                        assert tuple(a for a, _ in P.fibers) == C.cone_orders
                        assert h1_order(P) == Fraction(
                            d * abs(slope.p) * prod(C.cone_orders), prod(B.cone_orders)
                        )
                        assert euler_number(P) == d * euler_number(M)
                        checked[d > 1] += 1
    assert checked[True] > 50 and checked[False] > 100, checked


def _pullback_reference(M, sys):
    """The pullback written out part by part: one fiber (a/k, beta) for each
    part k of each full partition, so (1, beta) for each unbranched part."""
    full = [parts for v, parts in zip(sys.base_orders, sys.cycle_types()) if v > 1]
    fibers = tuple((a // k, be) for (a, be), parts in zip(M.fibers, full) for k in parts)
    return SeifertInvariants(sys.degree * M.b, fibers)


def test_pullback_matches_the_part_by_part_reference():
    # every system of every cover C -> B at degree n <= 60, with B and C the
    # base orbifolds of the SFS surgeries in the exceptional scan box (plus
    # the lens candidate bases), pulled back from each distinct surgery over
    # B: folding the unbranched parts into b at once changes nothing.  A C
    # with an order dividing no order of B has no system and is skipped.
    checked = Counter()
    for r, s in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        K = TorusKnot(r, s)
        slopes = [Slope(p, q) for p in range(-36, 37) for q in range(1, 5) if gcd(p, q) == 1]
        by_base = {}
        for cl in (classify_surgery(K, sl) for sl in slopes):
            if cl.kind == SFS:
                by_base.setdefault(cl.base_orbifold(), set()).add(cl.invariants)
        for B, manifolds in by_base.items():
            for C in set(by_base) | set(_lens_candidate_bases(B)):
                if any(all(v % w for v in B.cone_orders) for w in C.cone_orders):
                    continue
                for n in range(1, 61):
                    for sys in partition_systems(C, B, n):
                        for M in manifolds:
                            assert pullback(M, sys) == _pullback_reference(M, sys), (M, sys)
                        checked[n > 1] += 1
    assert (checked[True], checked[False]) == (889, 373), checked


def test_pullback_mismatched_system():
    M = parse_seifert("{1;(2,1),(3,1),(3,2)}")
    sys = partition_systems(Orbifold2((2, 2)), Orbifold2((2, 2, 4)), 4)[0]
    with pytest.raises(ValueError):
        pullback(M, sys)


# --- the decision procedure


def test_decide_cover_example_fiberwise():
    dec = decide_cover(K47, Slope(105, 4), Slope(21, 1))
    assert dec.covers and dec.degree == 5
    assert dec.certificate.fiberwise_degree == 5
    assert dec.certificate.orbifold_degree == 1
    assert dec.certificate.cover_slope == Slope(21, 1)


def test_decide_cover_example_composite():
    dec = decide_cover(K23, Slope(5, 1), Slope(45, 7))
    assert dec.covers and dec.degree == 72
    cert = dec.certificate
    assert cert.orbifold_degree == 4 and cert.fiberwise_degree == 18
    assert cert.intermediate == parse_seifert("{9;(3,1),(3,2)}")
    assert cert.cover_slope == Slope(5, 1)


def test_decide_cover_example_t25():
    dec = decide_cover(K25, Slope(-2, 3), Slope(-22, 1))
    assert dec.covers and dec.degree == 11
    assert dec.certificate.fiberwise_degree == 11
    assert dec.certificate.orbifold_degree == 1


def test_decide_cover_reducible():
    for slope in (Slope(7, 2), Slope(5, 1), Slope(45, 7)):
        dec = decide_cover(K23, slope, Slope(6, 1))
        assert not dec.covers and dec.reason == REDUCIBILITY
    assert decide_cover(K23, Slope(6, 1), Slope(6, 1)).degree == 1


def test_decide_cover_self_is_degree_one():
    for K, slope in [(K23, Slope(45, 7)), (K47, Slope(105, 4)), (K25, Slope(-2, 3))]:
        dec = decide_cover(K, slope, slope)
        assert dec.covers and dec.degree == 1


def test_decide_cover_zero_surgery():
    assert decide_cover_directed(K23, Slope(1, 1), Slope(0, 1)).reason == RANK
    assert decide_cover_directed(K23, Slope(0, 1), Slope(1, 1)).reason == H1_DIVISIBILITY


def test_negative_decisions_are_shared_and_equal_fresh_ones():
    # two pairs ending in the same fixed-detail obstruction get one shared
    # decision, equal to a freshly built one
    cases = [
        (CHI_MISMATCH, "orbifold Euler characteristics admit no integer degree",
         (K47, Slope(30, 1), Slope(31, 1)), (K47, Slope(31, 1), Slope(33, 1))),
        (REDUCIBILITY, "the unique reducible surgery only covers / is covered by itself",
         (K23, Slope(7, 2), Slope(6, 1)), (K23, Slope(6, 1), Slope(5, 1))),
        (RANK, "0-surgery (first betti number 1) is never covered by another surgery",
         (K23, Slope(1, 1), Slope(0, 1)), (K23, Slope(5, 1), Slope(0, 1))),
        (H1_DIVISIBILITY, "a surgery with infinite H_1 cannot cover one with finite H_1",
         (K23, Slope(0, 1), Slope(1, 1)), (K23, Slope(0, 1), Slope(5, 1))),
        (NO_ORBIFOLD_COVER, "covers of lens spaces are lens spaces",
         (K23, Slope(2, 1), Slope(5, 1)), (K23, Slope(3, 1), Slope(5, 1))),
        (NO_ORBIFOLD_COVER, "no admissible cover between the base orbifolds",
         (K57, Slope(36, 1), Slope(37, 1)), (K57, Slope(34, 1), Slope(37, 1))),
        # the deepest stage's obstruction, with no detail
        (H1_DIVISIBILITY, "", (K23, Slope(7, 1), Slope(2, 1)), (K23, Slope(7, 1), Slope(3, 1))),
    ]
    for reason, detail, first, second in cases:
        dec = decide_cover_directed(*first)
        assert dec == CoverDecision(False, reason=reason, detail=detail), (first, dec)
        assert decide_cover_directed(*second) is dec, second


def test_decide_cover_leaves_the_decision_cache_empty():
    decide_cover_directed.cache_clear()
    slopes = [Slope(p, q) for p in range(-12, 13) for q in (1, 2) if gcd(p, q) == 1]
    for K in (K23, K25, K47):
        for a in slopes:
            for b in slopes:
                decide_cover(K, a, b)
    assert decide_cover_directed.cache_info().currsize == 0


def test_decide_pair_equals_the_two_directed_calls():
    # every ordered pair of three knots with orbifold covers and of two
    # generic knots against the composition decide_cover was: a -> b, then
    # b -> a when a -> b fails.  decide_pair settles a pair that fails
    # Riemann-Hurwitz both ways (nearly every pair of the generic knots) at
    # once, with the shared chi-mismatch; the box also holds the pairs it
    # must not settle so: 0/1, identical slopes, lens and reducible slopes,
    # and on T(2,3) the chi = 0 base 12/1
    gated = Counter()
    for K in (K23, K25, TorusKnot(3, 4), K47, TorusKnot(5, 6)):
        slopes = [Slope(p, q) for p in range(-20, 21) for q in (1, 2, 3) if gcd(p, q) == 1]
        for a in slopes:
            for b in slopes:
                first = decide_cover_directed(K, a, b)
                forward, reverse = decide_pair(K, a, b)
                assert forward == first, (K, a, b)
                if first.covers:
                    assert reverse is None
                    want = first
                else:
                    second = decide_cover_directed(K, b, a)
                    assert reverse == second, (K, b, a)
                    want = second if second.covers else first
                    if first.reason == second.reason == CHI_MISMATCH:
                        assert forward is reverse is _NO_CHI_MISMATCH, (K, a, b)
                        gated[K] += 1
                assert decide_cover(K, a, b) == want, (K, a, b)
    assert min(gated[K47], gated[TorusKnot(5, 6)]) > 0.9 * len(slopes) ** 2, gated
    forward, reverse = decide_pair(K23, Slope(0, 1), Slope(2, 1))
    assert (forward.reason, reverse.reason) == (H1_DIVISIBILITY, RANK)
    forward, reverse = decide_pair(K23, Slope(48, 7), Slope(12, 1))
    assert forward.covers and forward.degree == 4 and reverse is None
    decide_cover_directed.cache_clear()


def test_decide_cover_lens_pair():
    # 5/1 and 7/1 on T(2,3) are L(5,1) and L(7,5)-ish: no divisibility
    dec = decide_cover(K23, Slope(5, 1), Slope(7, 1))
    assert not dec.covers and dec.reason == LENS_DIVISIBILITY


def test_certificate_h1_chain():
    # h1 relations hold along every returned certificate
    for K, a, b in [
        (K47, Slope(105, 4), Slope(21, 1)),
        (K23, Slope(5, 1), Slope(45, 7)),
        (K25, Slope(-2, 3), Slope(-22, 1)),
    ]:
        cert = decide_cover(K, a, b).certificate
        cover_h1 = abs(cert.cover_slope.p)
        if cert.intermediate is not None:
            assert h1_order(cert.intermediate) == cert.fiberwise_degree * cover_h1
        assert abs(cert.base_slope.p) != 0


def test_pullbacks_onto_equal_pair_bases_are_never_surgeries():
    # Pullbacks along S^2(d,d) -> S^2(2,s,2), d | s odd, are never themselves
    # surgeries on T(2,s): the pulled-back space has h1 = 0 mod d (or even,
    # for d = 1), while lens surgeries on T(2,s) have p = +-1 mod 2s.
    from dehncover.core import sfs_to_lens
    from dehncover.surgery import find_surgery_slopes

    for s in (3, 5, 7, 9):
        K = TorusKnot(2, s)
        for q in (1, 3):
            for p in (2 * s * q - 2, 2 * s * q + 2):
                if gcd(p, q) != 1:
                    continue
                M = surgery_seifert_invariants(K, Slope(p, q))
                assert M.base_orbifold().cone_orders == (2, 2, s)
                for d in [d for d in range(1, s + 1) if s % d == 0]:
                    cover = Orbifold2((d, d))
                    for sys in partition_systems(cover, M.base_orbifold(), 2 * s // d):
                        inter = pullback(M, sys)
                        assert len(inter.fibers) <= 2
                        assert find_surgery_slopes(K, sfs_to_lens(inter)) == []


def test_composite_cover_through_unrealized_pullback():
    # Covers inducing a S^2(d,d) -> S^2(2,s,2) base cover can still exist as
    # long as the intermediate pullback is not required to be a surgery:
    # L(5,1) = 5/1 surgery covers 20/3 surgery on T(2,3) in degree 12,
    # through the (3,3) -> (2,2,3) pullback L(30,11).
    dec = decide_cover_directed(K23, Slope(5, 1), Slope(20, 3))
    assert dec.covers and dec.degree == 12
    cert = dec.certificate
    assert cert.orbifold_degree == 2 and cert.fiberwise_degree == 6
    assert h1_order(cert.intermediate) == 30
    from dehncover.core import sfs_to_lens
    from dehncover.surgery import find_surgery_slopes

    assert find_surgery_slopes(K23, sfs_to_lens(cert.intermediate)) == []


def test_pullback_lens_type_matches_covering_theory():
    # the unique degree-d cover of L(p, q) is L(p/d, q); the pullback of a
    # (d,d)-presentation along S^2 -> S^2(d,d) must land on exactly that
    import random

    from dehncover.core import LensSpace, sfs_to_lens

    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        d = rng.randint(2, 9)
        betas = [x for x in range(1, d) if gcd(x, d) == 1]
        M = SeifertInvariants(rng.randint(-4, 4), ((d, rng.choice(betas)), (d, rng.choice(betas))))
        h = h1_order(M)
        if h == 0:
            continue
        sys = partition_systems(Orbifold2(()), Orbifold2((d, d)), d)[0]
        P = pullback(M, sys)
        assert sfs_to_lens(P) == LensSpace(h // d, sfs_to_lens(M).q)
        checked += 1
    assert checked > 300


def test_exceptional_knot_scan_frozen():
    # full directed-cover scan over |p| <= 36, q <= 4 on the knots carrying
    # exceptional orbifold covers; counts frozen from a verified run (each
    # certificate checked for internal h1/euler consistency below), and every
    # decision with its certificate's partition system and pullback pinned by
    # one digest taken in the scan order
    import hashlib

    expected = {
        (2, 3): (123, {2: 7, 4: 6, 5: 9, 6: 1, 10: 8, 12: 8}),
        (2, 5): (49, {2: 2, 6: 1, 20: 1}),
        (3, 4): (36, {}),
        (3, 5): (23, {}),
        (4, 5): (10, {}),
    }
    reasons = Counter()
    digest = hashlib.sha256()
    for (r, s), (want_total, want_orb) in expected.items():
        K = TorusKnot(r, s)
        slopes = [
            Slope(p, q)
            for p in range(-36, 37)
            for q in range(1, 5)
            if gcd(p, q) == 1
        ]
        decisions = [decide_cover_directed(K, a, b) for a in slopes for b in slopes if a != b]
        reasons.update(dec.reason for dec in decisions)
        for dec in decisions:
            cert = dec.certificate
            sys = cert and cert.partition_system
            digest.update(repr((
                dec.covers, dec.degree, dec.reason,
                sys and _FullPartitions(sys.degree, sys.base_orders, sys.cycle_types()),
                cert and cert.intermediate,
            )).encode())
        certs = [dec.certificate for dec in decisions if dec.covers]
        assert len(certs) == want_total, (r, s, len(certs))
        by_orb = Counter(c.orbifold_degree for c in certs if c.orbifold_degree > 1)
        assert dict(by_orb) == want_orb, (r, s, dict(by_orb))
        for c in certs:
            ca = classify_surgery(K, c.cover_slope)
            cb = classify_surgery(K, c.base_slope)
            if c.intermediate is not None:
                assert h1_order(c.intermediate) == c.fiberwise_degree * abs(c.cover_slope.p)
                if cb.kind == SFS:
                    assert euler_number(c.intermediate) == c.orbifold_degree * euler_number(cb.invariants)
            if ca.kind == SFS and cb.kind == SFS:
                lhs = euler_number(ca.invariants)
                rhs = Fraction(c.orbifold_degree, c.fiberwise_degree) * euler_number(cb.invariants)
                assert abs(lhs) == abs(rhs)  # mirror matches flip the sign
            if c.perm_witness is not None:
                assert c.perm_witness.degree == c.orbifold_degree
                assert c.perm_witness.partition_system() == c.partition_system
    # an early exit that moved a pair to another obstruction shows here
    assert reasons == {
        "chi-mismatch": 169_521,
        "no-orbifold-cover": 9_252,
        "h1-divisibility": 3_076,
        "reducibility": 1_920,
        "rank": 955,
        None: 241,
        "lens-divisibility": 128,
        "realization-failure": 106,
        "gcd-condition": 81,
    }
    assert digest.hexdigest()[:16] == "785e51891c318bd7"


def test_decide_pair_exceptional_box_frozen():
    # decide_pair's (forward, reverse) over every ordered pair of distinct
    # slopes of the exceptional scan box, pinned by one digest in scan order,
    # so an early exit in decide_pair cannot move a pair
    import hashlib

    def key(dec):
        if dec is None:
            return None
        cert = dec.certificate
        sys = cert and cert.partition_system
        return (
            dec.covers, dec.degree, dec.reason,
            sys and _FullPartitions(sys.degree, sys.base_orders, sys.cycle_types()),
            cert and cert.intermediate,
        )

    slopes = [Slope(p, q) for p in range(-36, 37) for q in range(1, 5) if gcd(p, q) == 1]
    digest = hashlib.sha256()
    pairs = 0
    for r, s in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        K = TorusKnot(r, s)
        for a in slopes:
            for b in slopes:
                if a != b:
                    forward, reverse = decide_pair(K, a, b)
                    digest.update(repr((key(forward), key(reverse))).encode())
                    pairs += 1
    assert pairs == 185_280
    assert digest.hexdigest()[:16] == "fe9d59502eb424bf"


def test_every_cover_candidate_has_a_partition_system():
    # _decide_directed runs the H1 and gcd checks before it lists a
    # candidate's partition systems.  That moves no reason because every
    # candidate is a table row, and every row has a system: checked here over
    # every finite-degree row of S^2(a,b,c), 2 <= a <= b <= c <= 12 (the
    # lens candidates S^2 and S^2(d,d) among them), and over the chi = 0 rows
    # of the three chi = 0 bases at every degree <= 300
    rows = 0
    for a in range(2, 13):
        for b in range(a, 13):
            for c in range(b, 13):
                B = Orbifold2((a, b, c))
                by_degree = _covers_by_degree(B.cone_orders)
                for n, covers in by_degree.items():
                    if n == UNCONSTRAINED:
                        continue
                    for C in covers:
                        assert partition_systems(Orbifold2(C), B, n), (C, B, n)
                        rows += 1
                for L in _lens_candidate_bases(B):
                    for n in classify_cover(L, B).finite:
                        assert L.cone_orders in by_degree[n], (L, B, n)
    assert rows == 431
    self_covers = []
    for base in ((2, 3, 6), (2, 4, 4), (3, 3, 3)):
        B = Orbifold2(base)
        for C in _covers_by_degree(base)[UNCONSTRAINED]:
            degrees = classify_cover(Orbifold2(C), B)
            for n in range(1, 301):
                if n in degrees:
                    assert partition_systems(Orbifold2(C), B, n), (C, B, n)
                    if C == base == (2, 3, 6):
                        self_covers.append(n)
    assert self_covers == [n for n in range(1, 301) if is_loeschian(n)]


def test_arithmetic_checks_come_before_partition_systems(monkeypatch):
    # a candidate that fails H1 divisibility or the gcd condition lists no
    # partition system; a positive decision lists its candidate's once
    calls = []

    def counting(C, B, n):
        calls.append((C, B, n))
        return partition_systems(C, B, n)

    monkeypatch.setattr(sfscover, "partition_systems", counting)
    for K, a, b, reason, want in (
        (K23, 5, 2, H1_DIVISIBILITY, 0),
        (K25, 9, 8, H1_DIVISIBILITY, 0),
        (K23, 3, 9, GCD_CONDITION, 0),
        (K23, 5, 1, None, 1),
    ):
        calls.clear()
        dec = decide_cover_directed.__wrapped__(K, Slope(a, 1), Slope(b, 1))
        assert (dec.reason, len(calls)) == (reason, want), (K, a, b, calls)
    cert = dec.certificate
    assert (cert.total_degree, cert.fiberwise_degree, cert.orbifold_degree) == (24, 2, 12)
    assert calls == [(Orbifold2((5, 5)), Orbifold2((2, 3, 5)), 12)]


def test_chi_zero_base_matches_a_degree_brute_force():
    # T(2,3) with n = 6 fibers over S^2(2,3,6), chi = 0, whose self-covers
    # have every Loeschian degree.  The decision tries the one degree of
    # _chi_zero_degree; the brute force tries every Loeschian d_o <= 400,
    # ascending, with d_f forced by |H_1|, prime to the cone orders
    B = Orbifold2((2, 3, 6))
    slopes = [
        Slope(p, q)
        for q in range(1, 13)
        for p in (6 * q - 6, 6 * q + 6)
        if p and gcd(p, q) == 1
    ]
    loeschian = [d for d in range(1, 401) if is_loeschian(d)]
    covers = []
    for a in slopes:
        M = classify_surgery(K23, a).invariants
        for b in slopes:
            if a == b:
                continue
            want = None
            for d_o in loeschian:
                hbar = d_o * abs(b.p)
                d_f = hbar // abs(a.p)
                if hbar % abs(a.p) or gcd(d_f, 6) != 1:
                    continue
                base = classify_surgery(K23, b).invariants
                if any(
                    (lifted := fiberwise_lift(pullback(base, sys), d_f)) is not None
                    and sfs_equivalent(lifted, M)
                    for sys in partition_systems(B, B, d_o)
                ):
                    want = (d_o * d_f, d_o)
                    break
            dec = decide_cover_directed(K23, a, b)
            got = (dec.degree, dec.certificate.orbifold_degree) if dec.covers else None
            assert got == want, (a, b)
            if want:
                covers.append((a, b))
    assert (len(slopes), len(covers)) == (7, 7)
    # 48/7 = {0;(2,1),(3,2),(6,1)} is the pullback of 12/1 =
    # {-1;(2,1),(3,2),(6,1)} along a degree-4 self-cover of S^2(2,3,6)
    dec = decide_cover_directed(K23, Slope(48, 7), Slope(12, 1))
    cert = dec.certificate
    assert (cert.total_degree, cert.fiberwise_degree, cert.orbifold_degree) == (4, 1, 4)
    assert cert.partition_system.partitions == ((), (1,), (3, 1))
    assert cert.partition_system.cycle_types() == ((2, 2), (3, 1), (3, 1))
    assert cert.intermediate == parse_seifert("{0;(2,1),(3,2),(6,1)}")
    assert cert.perm_witness.cover_orders() == (2, 3, 6)


def test_chi_zero_degree_is_loeschian():
    # the self-covers of S^2(2,3,6) are the Loeschian degrees, and the one
    # degree the decision tries is always among them, so it does not ask
    B = Orbifold2((2, 3, 6))
    assert classify_cover(B, B) == DegreeSet(frozenset(), ((1, "loeschian"),))
    assert all(is_loeschian(_chi_zero_degree(a, b)) for a in range(1, 400) for b in range(1, 400))


def test_orientation_reversing_cosmetic_pairs():
    # 9/1 and 9/2 on T(2,3) (and 25/2, 25/3 on T(2,5)) give the same
    # unoriented manifold: detected as degree-1 covers in both directions
    for K, a, b in [(K23, Slope(9, 1), Slope(9, 2)), (K25, Slope(25, 2), Slope(25, 3))]:
        for x, y in ((a, b), (b, a)):
            dec = decide_cover_directed(K, x, y)
            assert dec.covers and dec.degree == 1
    assert surgery_seifert_invariants(K23, Slope(9, 1)) == surgery_seifert_invariants(
        K23, Slope(9, 2)
    )


def test_spherical_cover_chain():
    # 3/1 on T(2,3) is the binary-tetrahedral space; it 5-fold covers the
    # 1/1 surgery (binary icosahedral) and 2-fold covers the 2/1 surgery
    # (binary octahedral), both through pullbacks of spherical orbifolds
    dec = decide_cover_directed(K23, Slope(3, 1), Slope(1, 1))
    assert dec.covers and dec.degree == 5 and dec.certificate.orbifold_degree == 5
    dec = decide_cover_directed(K23, Slope(3, 1), Slope(2, 1))
    assert dec.covers and dec.degree == 2 and dec.certificate.orbifold_degree == 2


def test_witness_attached_to_composite_certificate():
    cert = decide_cover(K23, Slope(5, 1), Slope(45, 7)).certificate
    assert cert.perm_witness is not None
    assert cert.perm_witness.degree == 4
    assert cert.perm_witness.cover_orders() == (3, 3)
    assert cert.partition_system.cover_orbifold() == Orbifold2((3, 3))


def test_oracle_witness_realises_the_given_system():
    # the witness's cycle types are the system's cycle_types(); past
    # ORACLE_BUDGET there is none, and branch data no monodromy realises
    # (the classic degree-4 exception 2+2, 2+2, 3+1) raises
    # (2+2, 2+1+1, 4) and (2+2, 2+2, 2+2) both give S2(2,2) -> S2(2,2,4);
    # the systems name only their branched parts
    for sys in (
        PartitionSystem(5, (2, 3, 5), ((1,), (1, 1), ())),
        PartitionSystem(4, (2, 2, 4), ((), (1, 1), ())),
        PartitionSystem(4, (2, 2, 4), ((), (), (2, 2))),
        PartitionSystem(2, (2, 2, 2), ((1, 1), (), ())),
    ):
        assert _oracle_witness(sys).partition_system() == sys
        assert _oracle_witness(sys).cycle_types == sys.cycle_types()
    # S2(2,2,2) -> S2(2,3,5) at degree 15, a table row past the budget
    over = PartitionSystem(15, (2, 3, 5), ((1, 1, 1), (), ()))
    assert over.degree > ORACLE_BUDGET
    assert _oracle_witness(over) is None
    bad = PartitionSystem(4, (2, 2, 3), ((), (), (1,)))
    with pytest.raises(RuntimeError, match="no monodromy"):
        _oracle_witness(bad)


def test_820_chi_obstruction_regression():
    # the two Seifert surgeries on the (-3,3,2) pretzel have base orbifold
    # characteristics -13/60 and -5/36; no integer ratio, so no cover
    A = parse_seifert("{-1;(3,1),(4,1),(5,2)}")
    B = parse_seifert("{-1;(2,1),(4,1),(9,2)}")
    ca, cb = chi_fraction(A.base_orbifold()), chi_fraction(B.base_orbifold())
    assert ca == Fraction(-13, 60) and cb == Fraction(-5, 36)
    assert (ca / cb).denominator != 1 and (cb / ca).denominator != 1
    from dehncover.orbcover import classify_cover

    assert not classify_cover(A.base_orbifold(), B.base_orbifold())
    assert not classify_cover(B.base_orbifold(), A.base_orbifold())


# --- fast path


def test_fastpath_worked_examples():
    assert torus_main_fastpath(K47, Slope(105, 4), Slope(21, 1)) == 5
    assert torus_main_fastpath(K47, Slope(21, 1), Slope(21, 1)) == 1
    assert torus_main_fastpath(K57, Slope(36, 1), Slope(37, 1)) is None


def test_fastpath_excluded_knots():
    for r, s in [(2, 3), (3, 4), (3, 5), (4, 5), (3, 7), (3, 8)]:
        with pytest.raises(ValueError):
            torus_main_fastpath(TorusKnot(r, s), Slope(1, 1), Slope(1, 1))


def test_excluded_knots_are_read_off_the_tables():
    # T(r,s) needs the general procedure exactly when some S^2(r,s,n) has
    # chi > 0 (lens spaces may cover it) or the tables list a cover between
    # two S^2(r,s,n)'s other than a degree-1 self-cover; N = 20 puts every
    # sporadic row (orders <= 9) in range
    N = 20
    derived = set()
    for r in range(3, 16):
        for s in range(r + 1, 16):
            if gcd(r, s) != 1:
                continue
            bases = [Orbifold2((r, s, n)) for n in range(2, N + 1)]
            if any(chi_fraction(B) > 0 for B in bases) or any(
                classify_cover(C, B) and (C != B or classify_cover(C, B).finite != {1})
                for C in bases
                for B in bases
            ):
                derived.add((r, s))
    assert derived == _EXCLUDED_KNOTS


def test_fastpath_needs_fiber_congruence():
    # |rsq-p|, divisibility and gcd conditions all hold here, but the scaled
    # fiber data does not match: there is no cover (gcd(p, rs) > 1 case)
    a, b = Slope(14, 1), Slope(42, 1)
    assert abs(28 * a.q - a.p) == abs(28 * b.q - b.p) == 14
    assert b.p % a.p == 0 and gcd(3, 28) == 1 and gcd(3, 14) == 1
    assert torus_main_fastpath(K47, a, b) is None
    assert not decide_cover(K47, a, b).covers
    q3 = fiberwise_quotient(surgery_seifert_invariants(K47, a), 3)
    assert not sfs_equivalent(q3, surgery_seifert_invariants(K47, b))


def test_fastpath_agrees_with_decision_procedure():
    # moderate scan here; the full criterion-4 scan runs in the acceptance suite
    for r, s in [(4, 7), (5, 6)]:
        K = TorusKnot(r, s)
        slopes = [
            Slope(p, q)
            for p in range(-30, 31)
            for q in range(1, 4)
            if gcd(p, q) == 1
        ]
        for a in slopes:
            for b in slopes:
                dec = decide_cover(K, a, b)
                assert torus_main_fastpath(K, a, b) == (dec.degree if dec.covers else None)
