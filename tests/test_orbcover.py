import time
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd

import pytest

from dehncover.core import Orbifold2, is_loeschian, is_two_square
from dehncover.orbcover import (
    UNCONSTRAINED,
    BudgetExceededError,
    PartitionSystem,
    PermWitness,
    _triple_for_types,
    _witness_for_types,
    canonical_perm,
    classify_cover,
    conjugacy_class_size,
    cycle_type,
    divisor_partitions,
    oracle_covers,
    partition_systems,
    perm_cover_oracle,
    perm_inverse,
    perm_mul,
    perms_transitive,
    riemann_hurwitz_degree,
    table_covers,
    summary_covers,
    verify_pair,
)

from conftest import chi_fraction

S2 = Orbifold2


# --- Euler characteristic and Riemann-Hurwitz


def test_chi_examples():
    assert chi_fraction(S2((2, 3, 7))) == Fraction(-1, 42)
    assert chi_fraction(S2((3, 3, 3))) == 0
    assert chi_fraction(S2(())) == 2


def test_stored_chi_is_the_reduced_characteristic():
    # 0-4 cone points of orders <= 12 (order 1 is dropped), against
    # 2 - sum (1 - 1/m) taken as a Fraction
    for k in range(5):
        for orders in combinations_with_replacement(range(1, 13), k):
            want = 2 - sum((1 - Fraction(1, m) for m in orders), Fraction(0))
            num, den = S2(orders).chi
            assert (num, den) == (want.numerator, want.denominator), orders
            assert den >= 1 and gcd(num, den) == 1
            assert chi_fraction(S2(orders)) == want


def test_stored_chi_leaves_equality_hash_and_repr_alone():
    orb = S2((7, 3, 2))
    fresh = S2((2, 3, 7))
    assert orb.chi == (-1, 42)
    assert orb == fresh and hash(orb) == hash(fresh) == hash(((2, 3, 7),))
    assert repr(orb) == repr(fresh) == "Orbifold2(cone_orders=(2, 3, 7))"
    assert [f.name for f in fields(Orbifold2)] == ["cone_orders"]


def test_riemann_hurwitz():
    assert riemann_hurwitz_degree(S2((3, 3, 7)), S2((2, 3, 7))) == 8
    assert riemann_hurwitz_degree(S2((3, 3, 3)), S2((2, 3, 6))) is UNCONSTRAINED
    assert riemann_hurwitz_degree(S2((2, 3, 7)), S2((3, 3, 3))) is None
    # 4/7 and -5/7 are no degrees, and classify_cover admits nothing there
    for C, B in [(S2((2, 3, 7)), S2((2, 3, 8))), (S2((2, 3, 7)), S2((2, 3, 5)))]:
        assert riemann_hurwitz_degree(C, B) is None
        assert not classify_cover(C, B)


def test_riemann_hurwitz_matches_the_fraction_definition():
    # covers with <= 3 orders in 2..12 over bases with <= 3 orders in 2..8,
    # S^2 on both sides, against chi(C)/chi(B) taken as a Fraction: chi of
    # both signs and 0, and non-integer ratios
    def chi(orders):
        return 2 - sum((1 - Fraction(1, m) for m in orders), Fraction(0))

    covers = [c for k in range(4) for c in combinations_with_replacement(range(2, 13), k)]
    bases = [b for k in range(4) for b in combinations_with_replacement(range(2, 9), k)]
    chis = {o: chi(o) for o in covers + bases}
    seen = Counter()
    for b in bases:
        cb = chis[b]
        sign = (cb > 0) - (cb < 0)
        for c in covers:
            cc = chis[c]
            if cb == 0:
                want, kind = (UNCONSTRAINED, "both zero") if cc == 0 else (None, "base zero")
            elif (cc / cb).denominator == 1 and cc / cb > 0:
                want, kind = (cc / cb).numerator, "degree"
            else:
                want, kind = None, "fraction" if cc / cb > 0 else "not positive"
            assert riemann_hurwitz_degree(S2(c), S2(b)) == want, (c, b)
            seen[sign, kind] += 1
    assert len(covers) * len(bases) == 43_680
    assert set(seen) == {
        (sign, kind) for sign in (1, -1) for kind in ("degree", "fraction", "not positive")
    } | {(0, "base zero"), (0, "both zero")}, seen


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


def test_perm_witness_keeps_cycle_types_and_checks_every_witness():
    ident, rot = (0, 1, 2), (1, 2, 0)
    witness = PermWitness(3, (1, 3, 3), (ident, rot, perm_inverse(rot)))
    assert witness.cycle_types == ((1, 1, 1), (3,), (3,))
    assert witness.partition_system().partitions == witness.cycle_types
    assert witness.cover_orders() == ()
    assert "cycle_types" not in repr(witness)
    # product not the identity; a 3-cycle at an order-2 point; intransitive
    for base3, perms in [((1, 3, 3), (ident, rot, rot)),
                         ((1, 2, 3), (ident, rot, perm_inverse(rot))),
                         ((1, 1, 1), (ident, ident, ident))]:
        with pytest.raises(ValueError):
            PermWitness(3, base3, perms)


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
            assert chi_fraction(orb) == n * chi_fraction(S2(base))
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


def _perms_of_cycle_type_reference(n, ctype):
    """Every permutation of S_n with the given cycle type, once: each cycle
    starts at the smallest point it moves."""
    perm = [0] * n

    def rec(avail, counts):
        if not avail:
            yield tuple(perm)
            return
        start, rest = avail[0], avail[1:]
        for length in sorted(k for k, c in counts.items() if c > 0):
            counts[length] -= 1
            if length == 1:
                perm[start] = start
                yield from rec(rest, counts)
            else:
                for tail in permutations(rest, length - 1):
                    prev = start
                    for pt in tail:
                        perm[prev] = pt
                        prev = pt
                    perm[prev] = start
                    chosen = set(tail)
                    yield from rec(tuple(p for p in rest if p not in chosen), counts)
            counts[length] += 1

    yield from rec(tuple(range(n)), Counter(ctype))


def _witness_for_types_reference(n, types):
    """A transitive triple with the given cycle types and product the
    identity, or None: the largest class is pinned to its canonical
    representative, the smallest is enumerated in full, and the third
    permutation is solved for and type-checked."""
    sizes = [conjugacy_class_size(n, t) for t in types]
    i_small, i_mid, i_big = sorted(range(3), key=lambda i: sizes[i])
    fixed = canonical_perm(n, types[i_big])
    for cand in _perms_of_cycle_type_reference(n, types[i_small]):
        known = {i_small: cand, i_big: fixed}
        if i_mid == 0:
            third = perm_inverse(perm_mul(known[1], known[2]))
        elif i_mid == 1:
            third = perm_mul(perm_inverse(known[0]), perm_inverse(known[2]))
        else:
            third = perm_inverse(perm_mul(known[0], known[1]))
        if cycle_type(third) == types[i_mid] and perms_transitive((cand, fixed), n):
            known[i_mid] = third
            return known[0], known[1], known[2]
    return None


def test_witness_search_matches_reference():
    # every typeset with total cycle count n + 2 over every base with orders
    # <= 9, n <= 7: the search finds a triple exactly when the class
    # enumeration does, every triple it returns is a witness of its types,
    # and the oracle, which skips typesets, reports the same cover orders
    checked = found = 0
    for base3 in combinations_with_replacement(range(1, 10), 3):
        for n in range(1, 8):
            expected = set()
            for types in product(*[divisor_partitions(n, v) for v in base3]):
                if sum(len(t) for t in types) != n + 2:
                    continue
                witness = _witness_for_types(n, base3, types)
                reference = _witness_for_types_reference(n, types)
                assert (witness is None) == (reference is None), (base3, n, types)
                checked += 1
                if witness is not None:
                    found += 1
                    assert witness.base_orders == base3
                    assert PermWitness(n, base3, witness.perms).partition_system().partitions == types
                    expected.add(witness.cover_orders())
            oracle = {orb.cone_orders for orb, _ in perm_cover_oracle(S2(base3), n)}
            assert oracle == expected, (base3, n)
    assert (checked, found) == (1581, 1418)


def test_triple_cache_serves_every_order_and_base_from_one_search():
    # three distinct types: a rotation of the sorted triple reaches three
    # orders, and reversing it with each permutation inverted the other three
    types = ((4,), (2, 2), (2, 1, 1))
    _triple_for_types.cache_clear()
    for base3 in ((4, 4, 4), (4, 8, 12)):
        for order in permutations(types):
            witness = _witness_for_types(4, base3, order)
            assert witness.partition_system().partitions == order
            assert witness.base_orders == base3
    info = _triple_for_types.cache_info()
    assert (info.misses, info.hits) == (1, 11)


def test_oracle_checks_the_fourth_summary_omitted_row():
    # S^2(2,2,2) -> S^2(2,3,5) at degree 15, the row past the budget of
    # verify-tables; enumerating the smallest class took 4.5 s here
    start = time.process_time()
    rep = verify_pair(S2((2, 3, 5)), 15, budget=15)
    assert time.process_time() - start < 0.5
    assert rep.clean, rep
    assert rep.documented == ((2, 2, 2),)


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
    with pytest.raises(ValueError):
        table_covers(S2((2, 2, 2, 2)), 1)


@pytest.fixture(scope="module")
def classified_rows():
    """Every (cover, base, degree) that classify_cover admits for bases with
    orders <= 9, covers with <= 3 cone orders <= 18 and degrees <= 60."""
    bases = sorted({S2(o) for o in combinations_with_replacement(range(1, 10), 3)},
                   key=lambda b: b.cone_orders)
    covers = [S2(o) for k in range(4) for o in combinations_with_replacement(range(2, 19), k)]
    rows = []
    for B in bases:
        for C in covers:
            degs = classify_cover(C, B)
            if degs:
                rows.extend((C, B, n) for n in degs.degrees_up_to(60))
    return bases, rows


def test_table_covers_match_classify_cover_brute_force(classified_rows):
    bases, rows = classified_rows
    want = {}
    for C, B, n in rows:
        want.setdefault((B, n), set()).add(C.cone_orders)
    for B in bases:
        for n in range(1, 61):
            assert table_covers(B, n) == want.get((B, n), set()), (B, n)


def test_classify_cover_rows_obey_riemann_hurwitz_and_divisibility(classified_rows):
    # table_covers lists its candidates from both facts
    _, rows = classified_rows
    assert len(rows) == 358
    for C, B, n in rows:
        assert chi_fraction(C) == n * chi_fraction(B), (C, B, n)
        assert all(any(v % w == 0 for v in B.cone_orders) for w in C.cone_orders), (C, B, n)


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
