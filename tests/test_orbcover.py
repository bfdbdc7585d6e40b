import copy
import inspect
import pickle
import time
from collections import Counter
from dataclasses import fields, replace
from functools import cache, cached_property
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, gcd, lcm

import pytest

import dehncover
from dehncover import cli
from dehncover.core import Orbifold2, is_loeschian, is_two_square
from dehncover.orbcover import (
    _SUMMARY_OMITS,
    UNCONSTRAINED,
    BudgetExceededError,
    PartitionSystem,
    PermWitness,
    _branched_rows,
    _checked_cycle_types,
    _covers_by_degree,
    _is_row,
    _open_paths,
    _triple_for_types,
    _witness_for_types,
    canonical_perm,
    classify_cover,
    conjugacy_class_size,
    cycle_type,
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


def test_stored_chi_survives_pickle_copy_and_replace():
    # chi is a plain instance attribute set at construction, so every way of
    # getting an Orbifold2 carries the chi a freshly built one has
    for orders in [(), (5,), (2, 2), (2, 3, 6), (7, 3, 2), (2, 3, 4, 5)]:
        orb, fresh = S2(orders), S2(tuple(sorted(orders)))
        want = 2 - sum((1 - Fraction(1, m) for m in orders if m > 1), Fraction(0))
        assert orb.chi == fresh.chi == want.as_integer_ratio()
        for other in (pickle.loads(pickle.dumps(orb)), copy.copy(orb), copy.deepcopy(orb), replace(orb)):
            assert other == orb and other.chi == fresh.chi
        assert replace(orb, cone_orders=(2, 3, 7)).chi == (-1, 42)


def test_no_dehncover_class_has_a_cached_property():
    # a cached_property writes instance.__dict__ on first read, which on
    # CPython 3.11 leaves every later attribute read on that instance
    # unspecialised; chi is stored at construction instead
    assert "chi" not in vars(Orbifold2)
    modules = [getattr(dehncover, name) for name in ("core", "surgery", "orbcover", "sfscover", "hyperbolic", "cli")]
    classes = {cls for mod in modules for _, cls in inspect.getmembers(mod, inspect.isclass)
               if cls.__module__.startswith("dehncover.")}
    assert Orbifold2 in classes and len(classes) > 10
    assert [(cls.__qualname__, name) for cls in classes for name, attr in vars(cls).items()
            if isinstance(attr, cached_property)] == []


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
    assert systems[0].partitions == ((), (1,), (1,))
    assert systems[0].cycle_types() == ((2, 2), (3, 1), (3, 1))
    assert systems[0].cover_orbifold() == S2((3, 3))


def test_partition_system_multiplicity():
    assert len(partition_systems(S2((2, 2)), S2((2, 2, 4)), 4)) >= 2


def test_partition_system_trivial():
    systems = partition_systems(S2((5, 7, 9)), S2((5, 7, 9)), 1)
    assert len(systems) == 1
    assert systems[0].partitions == systems[0].cycle_types() == ((1,), (1,), (1,))


@cache
def _divisor_partitions(n, v):
    """Each partition of n into parts dividing v, parts descending, in
    descending order, as the row (partition, its number of parts, the cone
    orders v // k of a cover above its branched parts k < v): the full
    table, built here from scratch so that the references below share no
    code with the package."""
    divs = [d for d in range(v, 0, -1) if v % d == 0]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append((tuple(acc), len(acc), tuple(v // k for k in acc if k < v)))
            return
        for d in divs:
            if d <= maxpart and d <= remaining:
                acc.append(d)
                rec(remaining - d, d, acc)
                acc.pop()

    rec(n, n, [])
    return tuple(out)


def test_branched_rows_are_the_rows_of_the_full_table_that_the_oracle_keeps():
    # every point order v <= 36 and degree n <= 24: the rows with at most
    # three branched parts, order included; a row keeps the branched parts,
    # their cover orders and the count of unbranched parts v
    start = time.perf_counter()
    for v in range(1, 37):
        for n in range(1, 25):
            want = [row for row in _divisor_partitions(n, v) if len(row[2]) <= 3]
            got = [((v,) * count + parts, count + len(parts), orders)
                   for parts, orders, count in _branched_rows(n, v)]
            assert got == want, (n, v)
            assert all(v not in parts for parts, _, _ in _branched_rows(n, v)), (n, v)
    assert time.perf_counter() - start < 1
    # the full table at (60, 60) has 73,155 rows
    assert len(_branched_rows(60, 60)) == 5


def _partition_systems_reference(cover, base, n):
    """Product of every divisor partition at each base point, filtered by
    the branch orders it produces: the full partitions of each system.  A
    point whose branched parts outnumber the cover's cone points, each of
    which lies over one of them, joins no system, so it is left out of the
    product first."""
    base3 = base.padded(3)
    size = len(cover.cone_orders)
    systems = []
    points = [[row[0] for row in _divisor_partitions(n, v) if len(row[2]) <= size] for v in base3]
    for combo in product(*points):
        branch = sorted(v // k for v, parts in zip(base3, combo) for k in parts if v // k > 1)
        if tuple(branch) == cover.cone_orders:
            systems.append(combo)
    return systems


def _expanded(systems):
    return [sys.cycle_types() for sys in systems]


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
                        assert _expanded(partition_systems(*key)) == _partition_systems_reference(*key), key
    # the degrees the decision asks: every base with orders <= 20 at every
    # degree the table inversion admits its covers at (up to S^2 ->
    # S^2(2,3,5) at 60), each with at least one system
    checked = 0
    for k in range(4):
        for base in combinations_with_replacement(range(2, 21), k):
            for n, covers in _covers_by_degree(base).items():
                if n is UNCONSTRAINED:
                    continue
                for cover in covers:
                    key = (S2(cover), S2(base), n)
                    systems = _expanded(partition_systems(*key))
                    assert systems and systems == _partition_systems_reference(*key), key
                    checked += 1
    assert checked == 2000
    # and the chi = 0 bases at their Loeschian or two-square degrees <= 30
    for base in [(2, 3, 6), (2, 4, 4), (3, 3, 3)]:
        for cover in sorted(_covers_by_degree(base)[UNCONSTRAINED]):
            degrees = [n for n in range(1, 31) if n in classify_cover(S2(cover), S2(base))]
            assert len(degrees) >= 5, (cover, base)
            for n in degrees:
                key = (S2(cover), S2(base), n)
                systems = _expanded(partition_systems(*key))
                assert systems and systems == _partition_systems_reference(*key), key


def test_partition_systems_match_reference_spherical():
    # the spindle and S^2(2,2,d) covers of the spherical triangle bases at
    # their table degrees, up to S^2 -> S^2(2,3,5) at degree 60
    covers = [(), (2, 2), (3, 3), (4, 4), (5, 5), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5)]
    checked = 0
    for base in [(2, 3, 3), (2, 3, 4), (2, 3, 5)]:
        for cover in covers:
            degs = classify_cover(S2(cover), S2(base))
            for n in [n for n in range(1, 61) if n in degs]:
                key = (S2(cover), S2(base), n)
                systems = _expanded(partition_systems(*key))
                assert systems and systems == _partition_systems_reference(*key), key
                checked += 1
    assert checked == 18


def test_partition_system_size_does_not_grow_with_the_degree():
    # the self-covers of S^2(2,3,6) at a degree past five million store the
    # branched parts only, at most three per point, and name the same cover
    B = S2((2, 3, 6))
    systems = partition_systems(B, B, 5_341_453)
    assert systems
    for sys in systems:
        assert all(len(parts) <= 3 for parts in sys.partitions), sys
        assert sys.cover_orbifold() == B
    # so do the rows of the table they are joined from: at most three
    # branched parts and their cover orders, and a count of unbranched parts
    for v in (1, 2, 3, 6):
        rows = _branched_rows(5_341_453, v)
        assert rows, v
        for parts, orders, count in rows:
            assert len(parts) == len(orders) <= 3, (v, parts)
            assert count * v + sum(parts) == 5_341_453, (v, parts)
    # each keeps its counts of unbranched parts v, (degree - sum of parts) / v,
    # as do the systems of smaller covers
    for cover, base, n in [((3, 3), (2, 3, 3), 4), ((2, 2), (2, 2, 4), 4), ((), (2, 3, 5), 60),
                           ((3, 3, 7), (2, 3, 7), 8), ((2, 2, 2), (2, 3, 5), 15)]:
        more = partition_systems(S2(cover), S2(base), n)
        assert more, (cover, base, n)
        systems += more
    for sys in systems:
        for v, count, parts in zip(sys.base_orders, sys.unbranched, sys.partitions):
            assert count * v == sys.degree - sum(parts), sys


def test_partition_systems_take_at_most_three_cone_points():
    with pytest.raises(ValueError, match="<= 3 cone points"):
        partition_systems(S2((2, 2, 2, 2)), S2((2, 4, 4)), 4)


def test_partition_system_checks_its_branched_parts():
    ok = PartitionSystem(4, (2, 3, 6), ((), (1,), (3, 1)))
    assert ok.cycle_types() == ((2, 2), (3, 1), (3, 1))
    # the unbranched counts are derived, so ==, hash and repr leave them out
    assert ok.unbranched == (2, 1, 0)
    assert repr(ok) == "PartitionSystem(degree=4, base_orders=(2, 3, 6), partitions=((), (1,), (3, 1)))"
    (unbranched,) = [f for f in fields(PartitionSystem) if f.name == "unbranched"]
    assert not unbranched.compare and not unbranched.repr
    twin = PartitionSystem(4, (2, 3, 6), ((), (1,), (3, 1)))
    object.__setattr__(twin, "unbranched", (0, 0, 0))
    assert twin == ok and hash(twin) == hash(ok)
    for partitions, message in [
        (((2,), (1,), (3, 1)), "proper divisors"),  # a part equal to its base order
        (((), (1,), (4,)), "proper divisors"),  # a part not dividing it
        (((), (1,), (3, 2, 1)), "do not fill"),  # parts summing past the degree
        (((), (1,), (2,)), "do not fill"),  # a remainder of 2, not a multiple of 6
    ]:
        with pytest.raises(ValueError, match=message):
            PartitionSystem(4, (2, 3, 6), partitions)


# --- permutation oracle


def _partitions(n, largest=None):
    """Every partition of n, parts descending."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_conjugacy_class_sizes_sum_to_the_group_order():
    # the classes of S_n, one per cycle type, partition it
    for n in range(1, 13):
        assert sum(conjugacy_class_size(n, t) for t in _partitions(n)) == factorial(n), n
    assert conjugacy_class_size(6, (2, 2, 1, 1)) == 45
    # the type may come in any order
    assert conjugacy_class_size(6, (1, 2, 1, 2)) == 45


def test_perm_witness_keeps_cycle_types_and_checks_every_witness():
    ident, rot = (0, 1, 2), (1, 2, 0)
    witness = PermWitness(3, (1, 3, 3), (ident, rot, perm_inverse(rot)))
    assert witness.cycle_types == ((1, 1, 1), (3,), (3,))
    assert witness.partition_system().partitions == ((), (), ())
    assert witness.partition_system().cycle_types() == witness.cycle_types
    assert witness.cover_orders() == ()
    assert "cycle_types" not in repr(witness)
    # product not the identity; a 3-cycle at an order-2 point; intransitive;
    # an entry below 0, which indexing would wrap; an entry past the degree;
    # degree 0
    for degree, base3, perms in [(3, (1, 3, 3), (ident, rot, rot)),
                                 (3, (1, 2, 3), (ident, rot, perm_inverse(rot))),
                                 (3, (1, 1, 1), (ident, ident, ident)),
                                 (2, (2, 1, 2), ((-2, 1), (0, 1), (0, 1))),
                                 (3, (1, 3, 3), (ident, (1, 2, 3), (2, 0, 1))),
                                 (0, (1, 1, 1), ((), (), ()))]:
        # the checks that do not read the base are cached, but an exception
        # is not, so a second build raises too
        for _ in range(2):
            with pytest.raises(ValueError):
                PermWitness(degree, base3, perms)
    # the cached triple of a valid witness is still checked against each base
    for base3 in [(1, 2, 3), (1, 3, 2), (3, 3, 4)]:
        with pytest.raises(ValueError, match="does not divide"):
            PermWitness(3, base3, witness.perms)
    assert PermWitness(3, (2, 6, 3), witness.perms) == PermWitness(3, (2, 6, 3), witness.perms)
    # the cache hashes perms, so they must be tuples
    with pytest.raises(TypeError):
        PermWitness(3, (1, 3, 3), [ident, rot, perm_inverse(rot)])


def _cycle_type_reference(x):
    """cycle_type as it was before the witness check was split, kept as the
    reference for the current one."""
    n = len(x)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = x[j]
                length += 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


def test_split_witness_check_matches_the_three_permutation_reference():
    # every triple of permutations of degree <= 4, among them every ordered
    # pair (a, b) with c = (ab)^-1: a witness over orders that every cycle
    # length divides is built exactly when the product is the identity and
    # <a, b, c> is transitive, and it keeps the reference cycle types
    accepted = 0
    for n in range(1, 5):
        perms = list(permutations(range(n)))
        for triple in product(perms, repeat=3):
            ident = perm_mul(perm_mul(triple[0], triple[1]), triple[2]) == tuple(range(n))
            if ident and perms_transitive(triple, n):
                accepted += 1
                witness = PermWitness(n, (12, 12, 12), triple)
                assert witness.cycle_types == tuple(map(_cycle_type_reference, triple)), triple
            else:
                with pytest.raises(ValueError):
                    PermWitness(n, (12, 12, 12), triple)
    # the transitive pairs: 1 at degree 1, 3 at 2, 26 at 3 and 426 at 4
    assert accepted == 456
    assert all(cycle_type(x) == _cycle_type_reference(x) for n in range(1, 7) for x in permutations(range(n)))


def test_checked_cycle_types_cache_hits_a_repeated_witness():
    rot = (1, 2, 0)
    perms = ((0, 1, 2), rot, perm_inverse(rot))
    _checked_cycle_types.cache_clear()
    PermWitness(3, (1, 3, 3), perms)
    assert _checked_cycle_types.cache_info()[:2] == (0, 1)  # hits, misses
    PermWitness(3, (1, 3, 3), perms)
    PermWitness(3, (5, 3, 6), tuple(map(tuple, map(list, perms))))  # equal perms, other base
    assert _checked_cycle_types.cache_info()[:2] == (2, 1)
    assert _checked_cycle_types.cache_info().maxsize == 1024


def test_oracle_finds_sporadic_cover():
    assert (3, 3, 7) in perm_cover_oracle(S2((2, 3, 7)), 8)


def test_oracle_degree3_square_lattice_empty():
    assert (2, 4, 4) not in perm_cover_oracle(S2((2, 4, 4)), 3)


def test_oracle_trivial_degree():
    covers = perm_cover_oracle(S2((5, 7, 9)), 1)
    assert list(covers) == [(5, 7, 9)]
    assert covers[5, 7, 9].degree == 1


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        perm_cover_oracle(S2((2, 3, 7)), 9, budget=8)


def test_oracle_witness_invariants():
    # Riemann-Hurwitz holds exactly on every witness, and the partition
    # condition is satisfied (checked through the independent enumerator)
    for base, n in [((2, 3, 7), 8), ((2, 3, 3), 4), ((2, 2, 4), 4), ((2, 3, 6), 7), ((3, 3, 3), 3)]:
        for orders, witness in perm_cover_oracle(S2(base), n).items():
            orb = S2(orders)
            assert chi_fraction(orb) == n * chi_fraction(S2(base))
            if len(orders) <= 3:
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
            for types in product(*[[row[0] for row in _divisor_partitions(n, v)] for v in base3]):
                if sum(len(t) for t in types) != n + 2:
                    continue
                witness = _witness_for_types(n, base3, types)
                reference = _witness_for_types_reference(n, types)
                assert (witness is None) == (reference is None), (base3, n, types)
                checked += 1
                if witness is not None:
                    found += 1
                    assert witness.base_orders == base3
                    assert PermWitness(n, base3, witness.perms).partition_system().cycle_types() == types
                    expected.add(witness.cover_orders())
            oracle = set(perm_cover_oracle(S2(base3), n))
            assert oracle == {orders for orders in expected if len(orders) <= 3}, (base3, n)
    assert (checked, found) == (1581, 1418)


def _perm_cover_oracle_uncapped(base, n):
    """The typeset walk without the cap on branched parts: every genus-0
    cover, those with more than 3 cone points included, each with the
    witness of the first typeset in product order that has one."""
    base3 = base.padded(3)
    va, vb, vc = base3
    third = {}
    for tc, length, orders_c in _divisor_partitions(n, vc):
        third.setdefault(length, []).append((tc, orders_c))
    found = {}
    for ta, length_a, orders_a in _divisor_partitions(n, va):
        for tb, length_b, orders_b in _divisor_partitions(n, vb):
            for tc, orders_c in third.get(n + 2 - length_a - length_b, ()):
                orders = tuple(sorted(orders_a + orders_b + orders_c))
                if orders not in found:
                    witness = _witness_for_types(n, base3, (ta, tb, tc))
                    if witness is not None:
                        found[orders] = witness
    return dict(sorted(found.items()))


def test_capped_walk_keeps_every_witness_of_the_uncapped_walk():
    # every pair of `verify-tables 12`: the oracle returns exactly the
    # uncapped walk's covers with <= 3 cone points, witness for witness and
    # in the same order; the 1,637 it drops have more
    pairs = [(b, n) for b in cli._scan_bases(9) for n in range(1, 10)]
    pairs += [(S2(o), n) for o in sorted({o for _c, o, _n in cli.TARGETED_ROWS}) for n in range(10, 13)]
    start = time.perf_counter()
    kept = dropped = 0
    for base, n in pairs:
        reference = _perm_cover_oracle_uncapped(base, n)
        want = [(orders, w) for orders, w in reference.items() if len(orders) <= 3]
        got = list(perm_cover_oracle(base, n).items())
        assert got == want, (base, n)
        kept += len(want)
        dropped += len(reference) - len(want)
    assert (len(pairs), kept, dropped) == (1497, 279, 1637)
    assert time.perf_counter() - start < 0.5


def test_triple_cache_serves_every_order_and_base_from_one_search():
    # three distinct types: a rotation of the sorted triple reaches three
    # orders, and reversing it with each permutation inverted the other three
    types = ((4,), (2, 2), (2, 1, 1))
    _triple_for_types.cache_clear()
    for base3 in ((4, 4, 4), (4, 8, 12)):
        for order in permutations(types):
            witness = _witness_for_types(4, base3, order)
            assert witness.partition_system().cycle_types() == order
            assert witness.base_orders == base3
    info = _triple_for_types.cache_info()
    assert (info.misses, info.hits) == (1, 11)


def _triple_for_types_unpruned(n, types):
    """The search of _triple_for_types without the centralizer rule: every
    unused image j is tried for b(i)."""
    sizes = [conjugacy_class_size(n, t) for t in types]
    k = max(range(3), key=sizes.__getitem__)
    a = canonical_perm(n, types[k])
    a_inv = perm_inverse(a)
    b_head, b_tail, b_size, b_need, b_lengths = _open_paths(n, types[(k + 1) % 3])
    m_head, m_tail, m_size, m_need, m_lengths = _open_paths(n, types[(k + 2) % 3])
    b = [-1] * n
    used = [False] * n

    def extend(i: int, placed: int) -> bool:
        x = a_inv[i]
        hb, hm = b_head[i], m_head[x]
        b_longest = next(length for length in b_lengths if b_need[length])
        m_longest = next(length for length in m_lengths if m_need[length])
        for j in range(n):
            if used[j]:
                continue
            if hb == j:
                if not b_need[b_size[j]]:
                    continue
            elif b_size[hb] + b_size[j] > b_longest:
                continue
            if hm == j:
                if not m_need[m_size[j]]:
                    continue
            elif m_size[hm] + m_size[j] > m_longest:
                continue
            if hb == j:
                b_need[b_size[j]] -= 1
            else:
                tb = b_tail[j]
                b_tail[hb], b_head[tb] = tb, hb
                b_size[hb] += b_size[j]
            if hm == j:
                m_need[m_size[j]] -= 1
            else:
                tm = m_tail[j]
                m_tail[hm], m_head[tm] = tm, hm
                m_size[hm] += m_size[j]
            b[i] = j
            used[j] = True
            if placed + 1 == n:
                if perms_transitive((a, b), n):
                    return True
            elif extend(a[j] if b[a[j]] < 0 else b.index(-1), placed + 1):
                return True
            b[i] = -1
            used[j] = False
            if hb == j:
                b_need[b_size[j]] += 1
            else:
                b_size[hb] -= b_size[j]
                b_tail[hb], b_head[tb] = i, j
            if hm == j:
                m_need[m_size[j]] += 1
            else:
                m_size[hm] -= m_size[j]
                m_tail[hm], m_head[tm] = x, j
        return False

    if not extend(0, 0):
        return None
    b = tuple(b)
    triple = (a, b, perm_inverse(perm_mul(a, b)))
    return triple[-k:] + triple[:-k]


def test_centralizer_pruning_keeps_every_answer():
    # every genus-0 multiset of cycle types over the bases with orders <= 9
    # at degrees 1-10, and four at degree 12 that a rule trying one untouched
    # cycle per node, whatever its length, answers None: the pruned search
    # finds a triple exactly when the unpruned one does, and each triple it
    # returns is a witness of its types
    keys = {
        (12, ((2, 2, 2, 2, 2, 2), (4, 3, 2, 2, 1), (4, 4, 4))),
        (12, ((2, 2, 2, 2, 2, 2), (5, 5, 2), (6, 2, 2, 1, 1))),
        (12, ((2, 2, 2, 2, 2, 2), (5, 5, 2), (8, 1, 1, 1, 1))),
        (12, ((3, 3, 3, 3), (3, 3, 3, 3), (4, 2, 2, 2, 1, 1))),
    }
    for base3 in combinations_with_replacement(range(1, 10), 3):
        for n in range(1, 11):
            for types in product(*[[row[0] for row in _divisor_partitions(n, v)] for v in base3]):
                if sum(map(len, types)) == n + 2:
                    keys.add((n, tuple(sorted(types))))
    found = 0
    for n, types in sorted(keys):
        triple = _triple_for_types.__wrapped__(n, types)
        assert (triple is None) == (_triple_for_types_unpruned(n, types) is None), (n, types)
        if triple is not None:
            found += 1
            witness = PermWitness(n, tuple(lcm(*t) for t in types), triple)
            assert witness.cycle_types == types
    assert (len(keys), found) == (863, 819)


def test_oracle_matches_the_spherical_tables_at_their_full_degrees():
    # S^2(2,3,5) at degree 60 took 40 s before the centralizer rule
    start = time.process_time()
    documented = set()
    for base, top in (((2, 3, 3), 12), ((2, 3, 4), 24), ((2, 3, 5), 60)):
        for n in range(1, top + 1):
            rep = verify_pair(S2(base), n, budget=60)
            assert rep.clean, rep
            documented |= {(c, base, n) for c in rep.documented}
    assert documented == _SUMMARY_OMITS
    assert time.process_time() - start < 5


def test_oracle_agrees_with_the_tables_over_2_3_7_to_its_riemann_hurwitz_bound():
    # a cover with at most three cone points has chi > -1, so over
    # S^2(2,3,7) (chi = -1/42) its degree is at most 41; (7,7,7) at 24 is
    # the highest-degree row of Singerman's list
    for n in range(1, 42):
        rep = verify_pair(S2((2, 3, 7)), n, budget=n)
        assert rep.clean, rep
    assert table_covers(S2((2, 3, 7)), 24) == {(7, 7, 7)}


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
    def degrees_up_to_20(cover, base):
        degs = classify_cover(S2(cover), S2(base))
        return [d for d in range(1, 21) if d in degs]

    assert degrees_up_to_20((9, 9, 9), (2, 3, 9)) == [12]
    dset = classify_cover(S2((3, 3, 3)), S2((2, 3, 6)))
    assert 14 in dset and 2 in dset and 3 not in dset
    assert degrees_up_to_20((2, 3, 3), (2, 3, 5)) == [5]
    assert degrees_up_to_20((2, 2, 3), (2, 3, 5)) == [10]


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
                rows.extend((C, B, n) for n in range(1, 61) if n in degs)
    return bases, rows


def test_table_covers_match_classify_cover_brute_force(classified_rows):
    bases, rows = classified_rows
    want = {}
    for C, B, n in rows:
        want.setdefault((B, n), set()).add(C.cone_orders)
    for B in bases:
        for n in range(1, 61):
            assert table_covers(B, n) == want.get((B, n), set()), (B, n)



def _reference_covers_by_degree(base):
    """The table inversion walked the plain way: every multiset of at most
    three cone divisors, its degree from riemann_hurwitz_degree, kept by
    _is_row (a chi = 0 pair at every degree)."""
    B = S2(base)
    divs = sorted({d for v in base for d in range(2, v + 1) if v % d == 0})
    out = {}
    for k in range(4):
        for cover in combinations_with_replacement(divs, k):
            n = riemann_hurwitz_degree(S2(cover), B)
            if n is UNCONSTRAINED or n is not None and _is_row(cover, base, n, B.chi[0] < 0):
                out.setdefault(n, set()).add(cover)
    return out


def test_covers_by_degree_equals_the_reference_walk():
    # every base with orders <= 20 (fewer than three cone points among
    # them), the three chi = 0 bases named as well
    bases = {S2(o).cone_orders for o in combinations_with_replacement(range(1, 21), 3)}
    bases |= {(2, 3, 6), (2, 4, 4), (3, 3, 3)}
    for base in sorted(bases):
        got = _covers_by_degree(base)
        assert got == _reference_covers_by_degree(base), base
        assert all(type(covers) is frozenset for covers in got.values()), base
    # table_covers hands out frozensets, the stored one itself over a
    # chi != 0 base, so no caller can change the cached rows
    assert table_covers(S2((2, 3, 7)), 8) is _covers_by_degree((2, 3, 7))[8]
    for base, n in (((2, 3, 7), 8), ((2, 3, 7), 7), ((2, 3, 6), 7), ((2, 3, 6), 14), ((2, 4, 4), 3)):
        assert type(table_covers(S2(base), n)) is frozenset, (base, n)
        assert type(summary_covers(S2(base), n)) is frozenset, (base, n)
    assert table_covers(S2((2, 3, 6)), 7) == {(2, 3, 6)}
    assert table_covers(S2((2, 3, 6)), 14) == {(3, 3, 3)}

def test_classify_cover_rows_obey_riemann_hurwitz_and_divisibility(classified_rows):
    # table_covers lists its candidates from both facts
    _, rows = classified_rows
    assert len(rows) == 359
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
            degs = classify_cover(A, B)
            ds = [d for d in range(1, maxdeg + 1) if d in degs]
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
