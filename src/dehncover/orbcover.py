"""
Covers of 2-orbifolds S^2(a,b,c) -> S^2(a',b',c').

Four tools live here:

  * the orbifold Euler characteristic / Riemann-Hurwitz degree computation,
  * the combinatorial partition condition (necessary for a cover): the
    partition systems of a cover are built by placing each of its cone orders
    at a base point whose order it divides (at most 27 placements, whatever
    the degree), and are listed in descending order of their partitions,
  * a permutation oracle that certifies exactly which branched covers of S^2
    orbifolds exist at a given degree by finding monodromy triples: it walks
    only the genus-0 triples of cycle types, and for each multiset of types
    it pins the first permutation and builds the second point by point,
    cutting a branch as soon as the second or the product closes a cycle, or
    grows a path, that the types rule out.  The answer, a triple or None,
    is cached per degree and multiset, so bases that share a typeset share
    one search, and
  * the closed-form classification tables, split by the sign of the orbifold
    Euler characteristic (negative: parametrized families plus sporadic rows;
    zero: quadratic-form degree sets; positive: spherical/bad orbifold rows).
    When the characteristic is not zero, Riemann-Hurwitz fixes the degree,
    chi(cover)/chi(base), and the tables only decide whether the pair covers
    at it; a pair whose ratio is no positive integer never reaches them.

The tables are encoded once, in classify_cover, which the decision procedure
uses; the inverted views table_covers and summary_covers (every cover of one
base at one degree) are read off it.  The oracle shares no code with the
tables, so verify_pair and the verify-tables CLI command check the encoding
the decisions use against an independent search.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial, isqrt, lcm

from .core import Orbifold2, is_loeschian, is_two_square


class BudgetExceededError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"enumeration budget exceeded (degree bound {bound})")
        self.bound = bound


# Marker: both orbifolds have chi = 0, so chi forces no degree.  Callers
# test it with `is`.
UNCONSTRAINED = "UNCONSTRAINED"


def riemann_hurwitz_degree(cover: Orbifold2, base: Orbifold2):
    """The degree chi(cover)/chi(base) forced by multiplicativity.

    Returns that degree when chi(base) != 0 and it is a positive integer,
    UNCONSTRAINED when both characteristics are zero, and None otherwise (no
    cover can exist).  The ratio is taken with one divmod of the integer
    numerators and denominators each orbifold keeps in Orbifold2.chi,
    building no Fraction.
    """
    cn, cd = cover.chi
    bn, bd = base.chi
    if not bn:
        return None if cn else UNCONSTRAINED
    n, rem = divmod(cn * bd, cd * bn)
    return n if not rem and n > 0 else None


# ---------------------------------------------------------------------------
# Partition condition


def divisors(v: int) -> list[int]:
    """The divisors of v >= 1, ascending, from the d <= sqrt(v) and v // d."""
    small = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
    return small + [v // d for d in reversed(small) if d * d != v]


@lru_cache(maxsize=None)
def divisor_partitions(n: int, v: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n into parts dividing v, parts descending."""
    divs = divisors(v)[::-1]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for d in divs:
            if d <= maxpart and d <= remaining:
                acc.append(d)
                rec(remaining - d, d, acc)
                acc.pop()

    rec(n, n, [])
    return tuple(out)


@dataclass(frozen=True)
class PartitionSystem:
    """Branching data of a candidate cover over a 3-cone-point base.

    base_orders is always padded to length 3 with 1s; partitions[i] is a
    partition of the degree by divisors of base_orders[i].  The cone point of
    the cover lying over a part k of the partition at base order v has order
    v/k (dropped when equal to 1).
    """

    degree: int
    base_orders: tuple[int, int, int]
    partitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.base_orders) != 3 or len(self.partitions) != 3:
            raise ValueError("partition system needs exactly 3 base points (pad with 1s)")
        for v, parts in zip(self.base_orders, self.partitions):
            if sum(parts) != self.degree:
                raise ValueError(f"partition {parts} does not sum to {self.degree}")
            if any(v % k for k in parts):
                raise ValueError(f"parts {parts} must divide the base order {v}")

    def branch_orders(self) -> tuple[int, ...]:
        """Cone orders of the covering orbifold (order-1 points dropped)."""
        out = [
            v // k
            for v, parts in zip(self.base_orders, self.partitions)
            for k in parts
            if v // k > 1
        ]
        return tuple(sorted(out))

    def cover_orbifold(self) -> Orbifold2:
        return Orbifold2(self.branch_orders())


def partition_systems(cover: Orbifold2, base: Orbifold2, n: int) -> list[PartitionSystem]:
    """All partition systems of degree n realizing cover -> base at the level
    of the partition condition.  An empty list certifies non-existence at
    this combinatorial level.  Base points of equal order get their
    partitions enumerated independently, so systems differing by which point
    carries which partition are listed separately.

    The systems are generated from the wanted cover orders: each order w is
    placed at a padded base point whose order v it divides, where it becomes
    the part v/w, and the rest of that point's degree is filled with
    unbranched parts v.  With k cone points on the cover this tries 3^k
    placements whatever n is.  The list is sorted descending by partitions.
    """
    base3 = base.padded(3)
    found = set()
    for placement in product(range(3), repeat=len(cover.cone_orders)):
        branched = ([], [], [])
        for w, i in zip(cover.cone_orders, placement):
            if base3[i] % w:
                break
            branched[i].append(base3[i] // w)
        else:
            combo = []
            for v, parts in zip(base3, branched):
                rest = n - sum(parts)
                if rest < 0 or rest % v:
                    break
                combo.append(tuple(sorted(parts + [v] * (rest // v), reverse=True)))
            else:
                found.add(tuple(combo))
    return [PartitionSystem(n, base3, combo) for combo in sorted(found, reverse=True)]


# ---------------------------------------------------------------------------
# Permutation machinery


def perm_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Product 'apply x, then y'."""
    return tuple(y[xi] for xi in x)


def perm_inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(x)
    for i, xi in enumerate(x):
        inv[xi] = i
    return tuple(inv)


def cycle_type(x: tuple[int, ...]) -> tuple[int, ...]:
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


def canonical_perm(n: int, ctype: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of the class with cycles on consecutive points."""
    perm = list(range(n))
    i = 0
    for length in sorted(ctype, reverse=True):
        for j in range(length):
            perm[i + j] = i + (j + 1) % length
        i += length
    return tuple(perm)


def conjugacy_class_size(n: int, ctype: tuple[int, ...]) -> int:
    denom = 1
    for length, count in Counter(ctype).items():
        denom *= length**count * factorial(count)
    return factorial(n) // denom


def perms_transitive(perms, n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for p in perms:
            j = p[i]
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


@dataclass(frozen=True)
class PermWitness:
    """Monodromy witness of a branched cover of S^2 orbifolds.

    The three permutations are aligned with the padded base orders; their
    product (applied left to right) is the identity, the cycle lengths of
    each divide the matching base order, and together they act transitively.
    Every witness is checked when built.  cycle_types holds the cycle type
    of each permutation, taken once by that check; it is derived from perms,
    so equality, hashing and repr leave it out.
    """

    degree: int
    base_orders: tuple[int, int, int]
    perms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cycle_types: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sa, sb, sc = self.perms
        if perm_mul(perm_mul(sa, sb), sc) != tuple(range(self.degree)):
            raise ValueError("monodromy product is not the identity")
        types = tuple(cycle_type(s) for s in self.perms)
        for v, ctype in zip(self.base_orders, types):
            if any(v % length for length in ctype):
                raise ValueError("cycle length does not divide the base cone order")
        if not perms_transitive(self.perms, self.degree):
            raise ValueError("monodromy group is not transitive")
        object.__setattr__(self, "cycle_types", types)

    def cover_orders(self) -> tuple[int, ...]:
        out = []
        for v, ctype in zip(self.base_orders, self.cycle_types):
            out.extend(v // length for length in ctype if v // length > 1)
        return tuple(sorted(out))

    def cover_orbifold(self) -> Orbifold2:
        return Orbifold2(self.cover_orders())

    def partition_system(self) -> PartitionSystem:
        return PartitionSystem(
            self.degree,
            self.base_orders,
            self.cycle_types,
        )


def _open_paths(n: int, ctype: tuple[int, ...]):
    """The bookkeeping of a permutation of the given type built edge by edge.

    Every point starts as a path of one point.  head maps the last point of a
    path to its first, tail the first to its last, and size the first to its
    number of points; the entries of a point inside a path or a cycle are
    stale and never read.  need counts the cycles of each length still to
    close, and lengths lists the lengths of the type in descending order.
    """
    need = [0] * (n + 1)
    for length in ctype:
        need[length] += 1
    return list(range(n)), list(range(n)), [1] * n, need, sorted(set(ctype), reverse=True)


# A `verify-tables 9` run fills 390 entries; an entry holds three
# permutations of the degree, about 0.5 KB at degree <= 12, so the full
# cache stays under 1 MB there.
@lru_cache(maxsize=1024)
def _triple_for_types(n: int, types: tuple[tuple[int, ...], ...]):
    """A transitive triple with product the identity whose cycle types are
    types, in that order, or None when there is none.  Callers pass the
    types sorted (see _witness_for_types), so each multiset is searched
    once and its answer, None included, is cached.

    The types are rotated so that the largest conjugacy class comes first (a
    rotation keeps the product the identity), and that permutation a is
    pinned to its canonical representative: every solution conjugates onto
    it.  The next one, b, is built point by point, trying every unused image
    j for b(i); the product m = a*b (m(x) = b(a(x))) grows with it, and b is
    next assigned at a(j) when that point is open, which extends the path of
    m ending at j.  The last permutation is c = m^-1, so m must have the
    third cycle type.  A branch is cut as soon as b or m closes a cycle of a
    length its type no longer needs, or grows a path longer than the longest
    cycle it still needs.  Only partial assignments that cannot be completed
    are cut, so None means that no transitive triple exists; transitivity of
    <a, b> is tested at the leaves.
    """
    sizes = [conjugacy_class_size(n, t) for t in types]
    k = max(range(3), key=sizes.__getitem__)
    a = canonical_perm(n, types[k])
    a_inv = perm_inverse(a)
    b_head, b_tail, b_size, b_need, b_lengths = _open_paths(n, types[(k + 1) % 3])
    m_head, m_tail, m_size, m_need, m_lengths = _open_paths(n, types[(k + 2) % 3])
    b = [-1] * n
    used = [False] * n

    def extend(i: int, placed: int) -> bool:
        # b(i) = j adds the edge i -> j to b and the edge x -> j to m; the
        # edge closes a cycle when j heads the path that ends at i (at x)
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


def _witness_for_types(n: int, base3, types) -> PermWitness | None:
    """A witness over the padded base orders base3 whose permutations have
    the given cycle types, in that order, or None when no transitive triple
    has them.

    Rotating a triple, or reversing it and inverting each permutation, keeps
    the product the identity, and together these moves reach every order of
    the three types.  So the search runs once per multiset, on the sorted
    types, in _triple_for_types, and its triple is moved to the asked order;
    the move is read off the type tuples.
    """
    key = tuple(sorted(types))
    triple = _triple_for_types(n, key)
    if triple is None:
        return None
    if types not in (key, key[1:] + key[:1], key[2:] + key[:2]):
        key = key[::-1]
        triple = tuple(perm_inverse(s) for s in reversed(triple))
    r = next(r for r in range(3) if key[r:] + key[:r] == types)
    return PermWitness(n, tuple(base3), triple[r:] + triple[:r])


def perm_cover_oracle(
    base: Orbifold2, n: int, budget: int = 12
) -> list[tuple[Orbifold2, PermWitness]]:
    """Enumerate all branched-cover types of the base orbifold at degree n.

    Returns one (cover orbifold, witness) pair per distinct cover, sorted by
    cover cone orders.  Covers by orbifolds with more than 3 cone points are
    included (callers comparing against the classification tables filter
    them out).  Only genus-0 covers are reported: a transitive triple has
    total cycle count n + 2 exactly when the covering surface is S^2.

    The typesets (one divisor partition of n per base point) are walked in
    product order, visiting only those with n + 2 cycles: the third point's
    partitions are indexed by length.  A typeset whose cover orders, which
    the parts alone determine, already have a witness is skipped; the rest
    go to _witness_for_types, which searches each multiset of types once and
    caches the answer, so a multiset that failed, here or for another base,
    is not searched again.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > budget:
        raise BudgetExceededError(budget)
    base3 = base.padded(3)
    va, vb, vc = base3
    third: dict[int, list] = {}
    for tc in divisor_partitions(n, vc):
        third.setdefault(len(tc), []).append((tc, [vc // k for k in tc if k < vc]))
    found: dict[tuple[int, ...], PermWitness] = {}
    for ta in divisor_partitions(n, va):
        orders_a = [va // k for k in ta if k < va]
        for tb in divisor_partitions(n, vb):
            orders_ab = orders_a + [vb // k for k in tb if k < vb]
            for tc, orders_c in third.get(n + 2 - len(ta) - len(tb), ()):
                orders = tuple(sorted(orders_ab + orders_c))
                if orders in found:
                    continue
                witness = _witness_for_types(n, base3, (ta, tb, tc))
                if witness is not None:
                    found[orders] = witness
    return [(Orbifold2(orders), w) for orders, w in sorted(found.items())]


# ---------------------------------------------------------------------------
# Closed-form classification tables


@dataclass(frozen=True)
class DegreeSet:
    """A set of covering degrees: a finite part plus quadratic-form families.

    A form entry (m, "loeschian") stands for {m * (x^2 + xy + y^2)} and
    (m, "twosquare") for {m * (x^2 + y^2)}, x, y not both zero.
    """

    finite: frozenset = frozenset()
    forms: tuple = ()

    def __contains__(self, d: int) -> bool:
        if d in self.finite:
            return True
        tests = {"loeschian": is_loeschian, "twosquare": is_two_square}
        for mult, form in self.forms:
            if d >= mult and d % mult == 0 and tests[form](d // mult):
                return True
        return False

    def __bool__(self) -> bool:
        return bool(self.finite) or bool(self.forms)

    def degrees_up_to(self, maxd: int) -> list[int]:
        return [d for d in range(1, maxd + 1) if d in self]


_EMPTY = DegreeSet()

# chi < 0 rows: (cover pattern, base pattern, degree, pattern uses y).
_NEG_ROWS = (
    (lambda x, y: (x, x, y), lambda x, y: (2, x, 2 * y), 2, True),
    (lambda x, y: (2, x, 2 * x), lambda x, y: (2, 3, 2 * x), 3, False),
    (lambda x, y: (x, x, x), lambda x, y: (3, 3, x), 3, False),
    (lambda x, y: (3, x, 3 * x), lambda x, y: (2, 3, 3 * x), 4, False),
    (lambda x, y: (x, 2 * x, 2 * x), lambda x, y: (2, 4, 2 * x), 4, False),
    (lambda x, y: (x, x, x), lambda x, y: (2, 3, 2 * x), 6, False),
    (lambda x, y: (x, 4 * x, 4 * x), lambda x, y: (2, 3, 4 * x), 6, False),
)

_NEG_SPORADIC = (
    ((4, 4, 5), (2, 4, 5), 6),
    ((3, 3, 7), (2, 3, 7), 8),
    ((2, 7, 7), (2, 3, 7), 9),
    ((3, 8, 8), (2, 3, 8), 10),
    ((4, 8, 8), (2, 3, 8), 12),
    ((9, 9, 9), (2, 3, 9), 12),
)

# chi > 0: the d of the S^2(d,d) covers (d = 1 meaning S^2) of the spherical
# triangle bases.
_SPHERICAL_DD = {(2, 3, 3): (1, 2, 3), (2, 3, 4): (1, 2, 3, 4), (2, 3, 5): (1, 2, 3, 5)}

# chi > 0: the d of the S^2(2,2,d) covers of the spherical triangle bases.
_SPHERICAL_22D = {(2, 3, 3): (2,), (2, 3, 4): (2, 3, 4), (2, 3, 5): (2, 3, 5)}

# (cover, base, degree) rows of the (2,2,d) family that the abbreviated
# summary variant of the table omits; the verifier reports them as
# documented, not failures.
_SUMMARY_OMITS = {
    ((2, 2, 2), (2, 3, 3), 3),
    ((2, 2, 2), (2, 3, 4), 6),
    ((2, 2, 4), (2, 3, 4), 3),
    ((2, 2, 2), (2, 3, 5), 15),
}

# Remaining sporadic chi > 0 rows with 3-cone-point covers.
_POS_SPORADIC = (
    ((2, 3, 3), (2, 3, 4), 2),
    ((2, 3, 3), (2, 3, 5), 5),
)


def _as_spindle(orders: tuple[int, ...]) -> tuple[int, int] | None:
    """(x, y) with x <= y if the orbifold has <= 2 cone points, else None."""
    if len(orders) > 2:
        return None
    if len(orders) == 0:
        return (1, 1)
    if len(orders) == 1:
        return (1, orders[0])
    return orders


def _as_dd(orders: tuple[int, ...]) -> int | None:
    """d if orders = S^2(d,d) (d = 1 meaning S^2 itself), else None."""
    if orders == ():
        return 1
    if len(orders) == 2 and orders[0] == orders[1]:
        return orders[0]
    return None


def _as_22d(orders: tuple[int, ...]) -> int | None:
    """d if orders = S^2(2,2,d) (d = 1 meaning S^2(2,2)), else None."""
    if orders == (2, 2):
        return 1
    if len(orders) == 3 and orders[0] == 2 and orders[1] == 2:
        return orders[2]
    return None


def _is_neg_row(cover: tuple[int, ...], base: tuple[int, ...], n: int) -> bool:
    """Whether cover -> base is a chi < 0 row of degree n."""
    cvals = set(cover)  # x and y always appear among the cover orders
    return (cover, base, n) in _NEG_SPORADIC or any(
        tuple(sorted(cpat(x, y))) == cover and tuple(sorted(bpat(x, y))) == base
        for cpat, bpat, deg, needs_y in _NEG_ROWS
        if deg == n
        for x in cvals
        for y in (cvals if needs_y else (0,))
    )


def _zero_degrees(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    if cover == base == (2, 3, 6) or cover == base == (3, 3, 3):
        return DegreeSet(forms=((1, "loeschian"),))
    if cover == base == (2, 4, 4):
        return DegreeSet(forms=((1, "twosquare"),))
    if cover == (3, 3, 3) and base == (2, 3, 6):
        return DegreeSet(forms=((2, "loeschian"),))
    return _EMPTY


def _is_pos_row(cover: tuple[int, ...], base: tuple[int, ...], n: int) -> bool:
    """Whether cover -> base is a chi > 0 row of degree n."""
    spindle_c, spindle_b = _as_spindle(cover), _as_spindle(base)
    if spindle_c is not None and spindle_b is not None:
        (cx, cy), (bx, by) = spindle_c, spindle_b
        if bx % cx == 0 and by % cy == 0 and bx // cx == by // cy:
            return True
    # S^2(d,d) and S^2(2,2,d) cover S^2(2,2,x) when d divides x, and a
    # spherical triangle base for the d its row lists
    x = _as_22d(base)
    for d, spherical in ((_as_dd(cover), _SPHERICAL_DD), (_as_22d(cover), _SPHERICAL_22D)):
        if d is not None and (x is not None and x % d == 0 or d in spherical.get(base, ())):
            return True
    return (cover, base, n) in _POS_SPORADIC


@lru_cache(maxsize=None)
def _classify_orders(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    B = Orbifold2(base)
    n = riemann_hurwitz_degree(Orbifold2(cover), B)
    if n is UNCONSTRAINED:
        return _zero_degrees(cover, base)
    if n is None:
        return _EMPTY
    is_row = _is_neg_row if B.chi[0] < 0 else _is_pos_row
    if cover == base or is_row(cover, base, n):
        return DegreeSet(frozenset({n}))
    return _EMPTY


def classify_cover(cover: Orbifold2, base: Orbifold2) -> DegreeSet:
    """All degrees in which cover -> base exists, per the classification
    tables.  For chi != 0 this is at most the one degree Riemann-Hurwitz
    forces, kept when the tables list the pair as a row of that degree; for
    chi = 0 it is a quadratic-form family.  The chi > 0 part is the complete
    list; an abbreviated summary variant omits four of its rows (see
    summary_covers for the difference).
    """
    if len(cover.cone_orders) > 3 or len(base.cone_orders) > 3:
        raise ValueError("classification applies to orbifolds with <= 3 cone points")
    return _classify_orders(cover.cone_orders, base.cone_orders)


# ---------------------------------------------------------------------------
# Table inversion: all covers of a base at one degree, read off classify_cover.


@lru_cache(maxsize=None)
def _covers_by_degree(base: tuple[int, ...]) -> dict:
    """The covers of S^2(base) with <= 3 cone points that classify_cover
    admits, keyed by degree.  Under the key UNCONSTRAINED, a chi = 0 base
    keeps its chi = 0 candidates, whose degrees chi does not fix.

    Each cone order of a cover divides a base cone order, and a cover of
    degree n has chi(C) = n * chi(B), so the candidates are the multisets of
    at most 3 divisors of the base orders, each tried at its one degree.  chi
    is scaled by the lcm of the base orders to stay an integer.
    """
    if len(base) > 3:
        raise ValueError("classification applies to orbifolds with <= 3 cone points")
    scale = lcm(*base)

    def chi(orders):
        return 2 * scale - sum(scale - scale // m for m in orders)

    cb = chi(base)
    divs = sorted({d for v in base for d in divisors(v) if d > 1})
    out: dict = {}
    for k in range(4):
        for cover in combinations_with_replacement(divs, k):
            cc = chi(cover)
            if cb:
                n, rem = divmod(cc, cb)
                if rem or n < 1 or n not in _classify_orders(cover, base):
                    continue
            elif cc:
                continue
            else:
                n = UNCONSTRAINED
            out.setdefault(n, set()).add(cover)
    return out


def table_covers(base: Orbifold2, n: int) -> set[tuple[int, ...]]:
    """Cover orbifolds (as reduced order tuples) admitted at degree n by the
    classification tables, i.e. the C with n in classify_cover(C, base)."""
    rows = _covers_by_degree(base.cone_orders)
    return set(rows.get(n, ())) | {
        c for c in rows.get(UNCONSTRAINED, ()) if n in _classify_orders(c, base.cone_orders)
    }


def summary_covers(base: Orbifold2, n: int) -> set[tuple[int, ...]]:
    """Same, restricted to the abbreviated summary variant of the table; the
    difference against table_covers is the documented-discrepancy set."""
    return {c for c in table_covers(base, n) if (c, base.cone_orders, n) not in _SUMMARY_OMITS}


def oracle_covers(
    base: Orbifold2, n: int, budget: int = 12
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], PermWitness]]:
    """Covers found by the permutation oracle at degree n: the set of covers
    with <= 3 cone points (comparable with the tables) plus the full witness
    map (which may also contain covers with more cone points)."""
    witnesses = {orb.cone_orders: w for orb, w in perm_cover_oracle(base, n, budget)}
    small = {orders for orders in witnesses if len(orders) <= 3}
    return small, witnesses


@dataclass(frozen=True)
class PairReport:
    """Oracle-vs-tables comparison at one (base, degree) pair."""

    base: tuple[int, ...]
    degree: int
    oracle_only: tuple
    table_only: tuple
    documented: tuple
    extra_multicone: tuple

    @property
    def clean(self) -> bool:
        return not self.oracle_only and not self.table_only


def verify_pair(base: Orbifold2, n: int, budget: int = 12) -> PairReport:
    oracle_set, witnesses = oracle_covers(base, n, budget)
    table_set = table_covers(base, n)
    return PairReport(
        base=base.cone_orders,
        degree=n,
        oracle_only=tuple(sorted(oracle_set - table_set)),
        table_only=tuple(sorted(table_set - oracle_set)),
        documented=tuple(sorted(c for c in table_set if (c, base.cone_orders, n) in _SUMMARY_OMITS)),
        extra_multicone=tuple(sorted(o for o in witnesses if len(o) > 3)),
    )
