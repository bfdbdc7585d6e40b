from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from dehncover.core import Orbifold2, is_loeschian, is_two_square
from dehncover.orbcover import (
    UNCONSTRAINED,
    BudgetExceededError,
    PartitionSystem,
    chi_orb,
    classify_cover,
    divisor_partitions,
    oracle_covers,
    partition_systems,
    perm_cover_oracle,
    riemann_hurwitz_degree,
    table_covers,
    summary_covers,
    verify_pair,
)

S2 = Orbifold2


# --- Euler characteristic and Riemann-Hurwitz


def test_chi_examples():
    assert chi_orb(S2((2, 3, 7))) == Fraction(-1, 42)
    assert chi_orb(S2((3, 3, 3))) == 0
    assert chi_orb(S2(())) == 2


def test_riemann_hurwitz():
    assert riemann_hurwitz_degree(S2((3, 3, 7)), S2((2, 3, 7))) == 8
    assert riemann_hurwitz_degree(S2((3, 3, 3)), S2((2, 3, 6))) is UNCONSTRAINED
    assert riemann_hurwitz_degree(S2((2, 3, 7)), S2((3, 3, 3))) is None


# --- partition systems


def test_partition_system_worked_example():
    systems = partition_systems(S2((3, 3)), S2((2, 3, 3)), 4)
    assert len(systems) == 1
    assert systems[0].partitions == ((2, 2), (3, 1), (3, 1))
    assert systems[0].cover_orbifold() == S2((3, 3))


def test_partition_system_multiplicity():
    assert len(partition_systems(S2((2, 2)), S2((2, 2, 4)), 4)) >= 2


def test_partition_system_trivial():
    systems = partition_systems(S2((5, 7, 9)), S2((5, 7, 9)), 1)
    assert len(systems) == 1
    assert systems[0].partitions == ((1,), (1,), (1,))


def _partition_systems_reference(cover, base, n):
    """Product of every divisor partition at each base point, filtered by
    the branch orders it produces."""
    base3 = base.padded(3)
    systems = []
    for combo in product(*[divisor_partitions(n, v) for v in base3]):
        branch = sorted(v // k for v, parts in zip(base3, combo) for k in parts if v // k > 1)
        if tuple(branch) == cover.cone_orders:
            systems.append(PartitionSystem(n, base3, combo))
    return systems


def test_partition_systems_match_reference_small():
    # every base with orders <= 7, every cover with <= 3 cone orders that
    # divide a base order, every degree <= 8: equal lists, order included
    for k in range(4):
        for base in combinations_with_replacement(range(2, 8), k):
            divs = sorted({d for v in base for d in range(2, v + 1) if v % d == 0})
            for j in range(4):
                for cover in combinations_with_replacement(divs, j):
                    for n in range(1, 9):
                        key = (S2(cover), S2(base), n)
                        assert partition_systems(*key) == _partition_systems_reference(*key), key


def test_partition_systems_match_reference_spherical():
    # the spindle and S^2(2,2,d) covers of the spherical triangle bases at
    # their table degrees, up to S^2 -> S^2(2,3,5) at degree 60
    covers = [(), (2, 2), (3, 3), (4, 4), (5, 5), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5)]
    checked = 0
    for base in [(2, 3, 3), (2, 3, 4), (2, 3, 5)]:
        for cover in covers:
            for n in classify_cover(S2(cover), S2(base)).degrees_up_to(60):
                key = (S2(cover), S2(base), n)
                systems = partition_systems(*key)
                assert systems and systems == _partition_systems_reference(*key), key
                checked += 1
    assert checked == 18


# --- permutation oracle


def test_oracle_finds_sporadic_cover():
    covers = {c.cone_orders for c, _ in perm_cover_oracle(S2((2, 3, 7)), 8)}
    assert (3, 3, 7) in covers


def test_oracle_degree3_square_lattice_empty():
    covers = {c.cone_orders for c, _ in perm_cover_oracle(S2((2, 4, 4)), 3)}
    assert (2, 4, 4) not in covers


def test_oracle_trivial_degree():
    covers = perm_cover_oracle(S2((5, 7, 9)), 1)
    assert len(covers) == 1
    orb, witness = covers[0]
    assert orb == S2((5, 7, 9)) and witness.degree == 1


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        perm_cover_oracle(S2((2, 3, 7)), 9, budget=8)


def test_oracle_witness_invariants():
    # Riemann-Hurwitz holds exactly on every witness, and the partition
    # condition is satisfied (checked through the independent enumerator)
    for base, n in [((2, 3, 7), 8), ((2, 3, 3), 4), ((2, 2, 4), 4), ((2, 3, 6), 7), ((3, 3, 3), 3)]:
        for orb, witness in perm_cover_oracle(S2(base), n):
            assert chi_orb(orb) == n * chi_orb(S2(base))
            if len(orb.cone_orders) <= 3:
                assert partition_systems(orb, S2(base), n)
            assert witness.partition_system().cover_orbifold() == orb


def test_oracle_self_cover_degrees_chi_zero():
    for base, test in [((2, 3, 6), is_loeschian), ((3, 3, 3), is_loeschian), ((2, 4, 4), is_two_square)]:
        found = []
        for n in range(1, 10):
            small, _ = oracle_covers(S2(base), n)
            if base in small:
                found.append(n)
        assert found == [n for n in range(1, 10) if test(n)], base


# --- classification tables


def test_classify_examples():
    assert classify_cover(S2((9, 9, 9)), S2((2, 3, 9))).degrees_up_to(20) == [12]
    dset = classify_cover(S2((3, 3, 3)), S2((2, 3, 6)))
    assert 14 in dset and 2 in dset and 3 not in dset
    assert classify_cover(S2((2, 3, 3)), S2((2, 3, 5))).degrees_up_to(20) == [5]
    assert classify_cover(S2((2, 2, 3)), S2((2, 3, 5))).degrees_up_to(20) == [10]


def test_classify_rejects_many_cone_points():
    with pytest.raises(ValueError):
        classify_cover(S2((2, 2, 2, 2)), S2((2, 4, 4)))


def test_summary_table_documented_rows():
    # the four rows present in the complete table but not the abbreviated variant
    for cov, base, n in [
        ((2, 2, 2), (2, 3, 3), 3),
        ((2, 2, 4), (2, 3, 4), 3),
        ((2, 2, 2), (2, 3, 4), 6),
        ((2, 2, 2), (2, 3, 5), 15),
    ]:
        assert cov in table_covers(S2(base), n)
        assert cov not in summary_covers(S2(base), n)
        assert n in classify_cover(S2(cov), S2(base))


def test_classify_composition_closure():
    orbs = [
        S2(o)
        for k in range(0, 4)
        for o in combinations_with_replacement(range(2, 7), k)
    ]
    maxdeg = 40
    nonempty = []
    for A in orbs:
        for B in orbs:
            ds = classify_cover(A, B).degrees_up_to(maxdeg)
            if ds:
                nonempty.append((A, B, ds))
    by_cover = {}
    for A, B, ds in nonempty:
        by_cover.setdefault(A.cone_orders, []).append((B, ds))
    for A, B, ds1 in nonempty:
        for C, ds2 in by_cover.get(B.cone_orders, []):
            big = classify_cover(A, C)
            for d1 in ds1:
                for d2 in ds2:
                    if d1 * d2 <= maxdeg:
                        assert d1 * d2 in big, (A, B, C, d1, d2)


# --- oracle vs tables


@pytest.mark.parametrize(
    "base,n",
    [
        ((2, 3, 7), 8),
        ((2, 3, 7), 9),
        ((2, 4, 5), 6),
        ((2, 3, 4), 6),
        ((2, 2, 4), 4),
        ((2, 2, 5), 5),
        ((3, 3, 3), 4),
        ((2, 3, 6), 6),
        ((2, 3, 5), 10),
        ((2, 5, 6), 2),
    ],
)
def test_oracle_table_equality_samples(base, n):
    rep = verify_pair(S2(base), n)
    assert rep.clean, rep


def test_oracle_table_equality_chi_zero_high_degree():
    # the quadratic-form families above degree 9: 10 and 12 split the
    # loeschian / two-square memberships in all four combinations
    for base, n in [
        ((2, 3, 6), 10),
        ((2, 3, 6), 12),
        ((3, 3, 3), 12),
        ((2, 4, 4), 10),
        ((2, 4, 4), 12),
    ]:
        assert verify_pair(S2(base), n).clean
