"""
Covers of 2-orbifolds S^2(a,b,c) -> S^2(a',b',c').

Four tools live here:

  * the orbifold Euler characteristic / Riemann-Hurwitz degree computation,
  * the combinatorial partition condition (necessary for a cover): one
    bounded table, _branched_rows, keyed by (degree, point order), holds the
    ways to fill a base point with at most three branched parts, each row
    its branched parts, the cover orders above them and its count of
    unbranched parts, so nothing in it grows with the degree; the partition
    systems of a cover are the joins of one row per base point whose cover
    orders are the cover's, listed in descending order of their full
    partitions, each keeping its counts of unbranched parts,
  * a permutation oracle that certifies exactly which genus-0 covers with at
    most three cone points (those the tables classify) exist at a given
    degree by finding monodromy triples: it walks only the typesets with
    n + 2 cycles and at most three branched parts, read from the same row
    table (never from every divisor partition of n), and for each multiset of
    types it pins the first permutation and builds the second point by point,
    cutting a branch as soon as the second or the product closes a cycle, or
    grows a path, that the types rule out, and trying one image per class of
    the pinned permutation's centralizer on the cycles the branch has not
    touched (S^2(2,3,5) at degree 60 takes milliseconds).  The answer, a
    triple or None, is cached per degree and multiset, so bases that share a
    typeset share one search; it keys each cover by its cone orders, and
  * the closed-form classification tables, split by the sign of the orbifold
    Euler characteristic (negative: parametrized families plus sporadic rows;
    zero: quadratic-form degree sets; positive: spherical/bad orbifold rows).
    When the characteristic is not zero, Riemann-Hurwitz fixes the degree,
    chi(cover)/chi(base), and the tables only decide whether the pair covers
    at it; a pair whose ratio is no positive integer never reaches them.

The tables are encoded once, in classify_cover, which the decision procedure
uses; the inverted views table_covers and summary_covers (every cover of one
base at one degree) are read off it.  The inversion walks the multisets of
at most three cone divisors of a base once, as nested loops keeping a
running chi sum, and caches each degree's covers as a frozenset, which
table_covers returns as it is over a chi != 0 base.  The oracle shares no
code with the tables, so verify_pair and the verify-tables CLI command check
the encoding the decisions use against an independent search.  It shares the
row table with partition_systems, so the multisets of at most three proper
divisors of a point's order are walked in one place, and the divisors of
each order are read once per process, from the bounded cache on divisors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, isqrt, lcm

from .core import Orbifold2, is_loeschian, is_two_square, shared_orbifold


class BudgetExceededError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"enumeration budget exceeded (degree bound {bound})")
        self.bound = bound


# The oracle's default degree bound, and the orbifold degree up to which a
# cover certificate carries a monodromy witness.
ORACLE_BUDGET = 12

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


# Hits: 513 of 522 calls per verify-tables round (seed 1, 9 entries), 91 of
# 95 per exceptional-scan round (4 entries).  An entry holds the divisors of
# one order: at most 12 (0.5 KB) for orders <= 72, so the full cache stays
# under 0.2 MB there.  The longest list of an order orb-covers accepts,
# the 6,720 divisors of 963761198400, takes 0.24 MB, and one command reads
# at most three orders.
@lru_cache(maxsize=256)
def divisors(v: int) -> tuple[int, ...]:
    """The divisors of v >= 1, ascending, from the d <= sqrt(v) and v // d."""
    small = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
    return tuple(small + [v // d for d in reversed(small) if d * d != v])


# Hits: 3,890 of 3,972 calls per verify-tables round (seed 1, 82 entries),
# 4,479 of 4,707 over `--budget 30 verify-tables 30` (228 entries), 59 of 82
# per exceptional-scan round (23 entries).  An entry holds at most one row
# per multiset of at most three proper divisors of v, and no row grows with
# n: at degrees <= 60 and orders <= 72 an entry takes 0.4 KB on average and
# 2.4 KB at most, so the full cache stays under 2.5 MB; at degree 5,341,453
# over S^2(2,3,6) the three entries take 0.3-0.8 KB.
@lru_cache(maxsize=1024)
def _branched_rows(n: int, v: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The ways to fill degree n at a base point of order v with at most
    three branched parts, as rows (branched parts k < v dividing v,
    descending; the cone orders v // k of a cover above them, ascending; the
    count of unbranched parts v that fill the rest), in descending order of
    the full partitions (v,) * count + parts.

    Each multiset of at most three proper divisors k <= n fixes one row,
    kept when v divides what the parts leave.  A row stores no part v, so
    nothing in it grows with n, and the other partitions of n into divisors
    of v, whose number grows without bound in n, are never built.  Both
    partition_systems and the permutation oracle read their rows here.
    """
    divs = [k for k in divisors(v)[-2::-1] if k <= n]  # descending
    # (unbranched count, branched parts): the multisets walked as nested
    # loops over the divisors, each taking its part off what is left of n
    fills = [] if n % v else [(n // v, ())]
    for i, k1 in enumerate(divs):
        r1 = n - k1
        if not r1 % v:
            fills.append((r1 // v, (k1,)))
        for j in range(i, len(divs)):
            k2 = divs[j]
            r2 = r1 - k2
            if r2 < 0:
                continue
            if not r2 % v:
                fills.append((r2 // v, (k1, k2)))
            for k3 in divs[j:]:
                r3 = r2 - k3
                if r3 >= 0 and not r3 % v:
                    fills.append((r3 // v, (k1, k2, k3)))
    # more unbranched parts v first, then the branched parts descending:
    # the descending order of the full partitions
    fills.sort(reverse=True)
    return tuple([(parts, tuple([v // k for k in parts]), count) for count, parts in fills])


@dataclass(frozen=True)
class PartitionSystem:
    """Branching data of a candidate cover over a 3-cone-point base.

    base_orders is always padded to length 3 with 1s; partitions[i] holds the
    branched parts at base order v = base_orders[i], proper divisors k of v,
    descending, each under a cone point of order v/k of the cover, and
    unbranched[i] counts the (degree - sum) / v unbranched parts v there;
    derived by the check, it is left out of equality, hashing and repr.
    """

    degree: int
    base_orders: tuple[int, int, int]
    partitions: tuple[tuple[int, ...], ...]
    unbranched: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.base_orders) != 3 or len(self.partitions) != 3:
            raise ValueError("partition system needs exactly 3 base points (pad with 1s)")
        counts = []
        for v, parts in zip(self.base_orders, self.partitions):
            total = 0
            for k in parts:
                if not 0 < k < v or v % k:
                    raise ValueError(f"branched parts {parts} must be proper divisors of the base order {v}")
                total += k
            count, rest = divmod(self.degree - total, v)
            if count < 0 or rest:
                raise ValueError(f"branched parts {parts} do not fill degree {self.degree} with parts {v}")
            counts.append(count)
        object.__setattr__(self, "unbranched", tuple(counts))

    def cycle_types(self) -> tuple[tuple[int, ...], ...]:
        """The full partitions of the degree, the cycle types of a witness.
        They grow with the degree; only the permutation oracle reads them."""
        (va, vb, vc), (ca, cb, cc), (pa, pb, pc) = self.base_orders, self.unbranched, self.partitions
        return (va,) * ca + pa, (vb,) * cb + pb, (vc,) * cc + pc

    def branch_orders(self) -> tuple[int, ...]:
        """Cone orders of the covering orbifold."""
        return tuple(sorted(v // k for v, parts in zip(self.base_orders, self.partitions) for k in parts))

    def cover_orbifold(self) -> Orbifold2:
        return Orbifold2(self.branch_orders())


def partition_systems(cover: Orbifold2, base: Orbifold2, n: int) -> list[PartitionSystem]:
    """All partition systems of degree n realizing cover -> base at the level
    of the partition condition.  An empty list certifies non-existence at
    this combinatorial level.  Base points of equal order get their
    partitions enumerated independently, so systems differing by which point
    carries which partition are listed separately.

    The systems are a join over the _branched_rows of the padded base
    points: one row per point, kept when the cone orders above the three
    rows' branched parts are, together, the cover's.  With at most three
    cone points on the cover no point has more than three branched parts,
    and no row stores a part that grows with n.  Nested in point order, each
    point's rows descending, the loops list the systems in descending order
    of their full partitions, point by point, unbranched parts first.  A
    cover with more than three cone points raises ValueError, as in
    classify_cover.
    """
    want = cover.cone_orders
    if len(want) > 3:
        raise ValueError("partition systems are listed for covers with <= 3 cone points")
    size = len(want)
    base3 = base.padded(3)
    rows_c = _branched_rows(n, base3[2])
    out = []
    for parts_a, orders_a, _ in _branched_rows(n, base3[0]):
        if len(orders_a) > size:
            continue
        for parts_b, orders_b, _ in _branched_rows(n, base3[1]):
            orders_ab = orders_a + orders_b
            rest = size - len(orders_ab)
            if rest < 0:
                continue
            for parts_c, orders_c, _ in rows_c:
                if len(orders_c) == rest and tuple(sorted(orders_ab + orders_c)) == want:
                    out.append(PartitionSystem(n, base3, (parts_a, parts_b, parts_c)))
    return out


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
    """The cycle lengths of the permutation x of range(len(x)), descending;
    each cycle is walked once, from its first point until the walk returns
    to it."""
    seen = [False] * len(x)
    out = []
    for i, j in enumerate(x):
        if seen[i]:
            continue
        seen[i] = True
        length = 1
        while not seen[j]:
            seen[j] = True
            j = x[j]
            length += 1
        out.append(length)
    out.sort(reverse=True)
    return tuple(out)


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
    """n! over the centralizer order, the product of l^m * m! over the
    lengths l that occur m times in the type.  One walk over the sorted type
    multiplies in l * r for the r-th cycle of each run of length l."""
    denom = run = 1
    prev = 0
    for length in sorted(ctype):
        run = run + 1 if length == prev else 1
        prev = length
        denom *= length * run
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


# Hits: 234 of 274 calls per verify-tables round (seed 1), 234 of 279 over
# `verify-tables 9` (45 entries, no evictions), 3 of 12 per exceptional-scan
# round.  An entry (the key's three permutations and three cycle types, the
# permutations mostly shared with _triple_for_types) takes at most 1.0 KB at
# degree 12 and 2.5 KB at degree 60: about 1 MB full within ORACLE_BUDGET,
# 2.6 MB at --budget 60.
@lru_cache(maxsize=1024)
def _checked_cycle_types(degree: int, perms) -> tuple[tuple[int, ...], ...]:
    """The cycle types of a monodromy triple, after the checks that do not
    read the base: degree >= 1, each permutation a rearrangement of
    range(degree), product the identity, and a transitive group.  A failed
    check raises ValueError, and lru_cache keeps no exception, so a bad
    triple raises on every call.

    Lemma.  If abc = 1 (applied left to right), <a, b, c> = <a, b>, so the
    triple is transitive iff a and b together are.

    Proof.  c = (ab)^-1 lies in <a, b>.
    """
    if degree < 1:
        raise ValueError("a witness needs degree >= 1")
    sa, sb, sc = perms
    points = list(range(degree))
    if sorted(sa) != points or sorted(sb) != points or sorted(sc) != points:
        raise ValueError(f"a monodromy permutation is not a rearrangement of range({degree})")
    if list(map(sc.__getitem__, map(sb.__getitem__, sa))) != points:
        raise ValueError("monodromy product is not the identity")
    if not perms_transitive((sa, sb), degree):
        raise ValueError("monodromy group is not transitive")
    return cycle_type(sa), cycle_type(sb), cycle_type(sc)


@dataclass(frozen=True)
class PermWitness:
    """Monodromy witness of a branched cover of S^2 orbifolds.

    The three permutations are aligned with the padded base orders; each is
    a rearrangement of range(degree), their product (applied left to right)
    is the identity, the cycle lengths of each divide the matching base
    order, and together they act transitively.
    Every witness is checked when built.  The checks that do not read the
    base run in _checked_cycle_types, which keeps its answer per
    (degree, perms) in a bounded cache, so perms must be a tuple of tuples:
    a list raises TypeError when the witness is built.  The divisibility of
    the cycle lengths runs on every witness.  cycle_types holds the cycle
    type of each permutation; it is derived from perms, so equality,
    hashing and repr leave it out.
    """

    degree: int
    base_orders: tuple[int, int, int]
    perms: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cycle_types: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        types = _checked_cycle_types(self.degree, self.perms)
        for v, ctype in zip(self.base_orders, types):
            if v % lcm(*ctype):  # every cycle length divides v iff their lcm does
                raise ValueError("cycle length does not divide the base cone order")
        object.__setattr__(self, "cycle_types", types)

    def cover_orders(self) -> tuple[int, ...]:
        return self.partition_system().branch_orders()

    def partition_system(self) -> PartitionSystem:
        """The system the witness realises: its cycle lengths below the base
        orders, the branched parts."""
        return PartitionSystem(
            self.degree,
            self.base_orders,
            tuple(tuple(k for k in ctype if k < v) for v, ctype in zip(self.base_orders, self.cycle_types)),
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


# A `verify-tables 9` run fills 50 entries and serves 249 of its 299 calls
# from them; an entry holds three permutations of the degree, about 0.5 KB
# at degree <= 12, so the full cache stays under 1 MB there.
@lru_cache(maxsize=1024)
def _triple_for_types(n: int, types: tuple[tuple[int, ...], ...]):
    """A transitive triple with product the identity whose cycle types are
    types, in that order, or None when there is none.  Callers pass the
    types sorted (see _witness_for_types), so each multiset is searched
    once and its answer, None included, is cached.

    The types are rotated so that the largest conjugacy class comes first (a
    rotation keeps the product the identity), and that permutation a is
    pinned to its canonical representative, its cycles on consecutive
    points, longest first: every solution conjugates onto it.  The next one,
    b, is built point by point, trying the unused images j for b(i) in
    ascending order; the product m = a*b (m(x) = b(a(x))) grows with it, and
    b is next assigned at a(j) when that point is open, which extends the
    path of m ending at j.  The last permutation is c = m^-1, so m must have
    the third cycle type.  A branch is cut as soon as b or m closes a cycle
    of a length its type no longer needs, or grows a path longer than the
    longest cycle it still needs.

    Pinning a leaves its centralizer C(a) free, and the search breaks that
    symmetry too.  Call a cycle of a touched when one of its points is in
    the domain or the image of the partial b; the cycle of i counts as
    touched.  An image j on an untouched cycle is tried only when j is the
    first point of its cycle and no untouched cycle of its length has been
    tried at this node.

    Lemma.  If the partial b has a completion with b(i) = j, j on an
    untouched cycle, then it has one with b(i) = j', the first point of the
    first untouched cycle of the same length.

    Proof.  Some g in C(a) rotates j's cycle and swaps it with that of j'
    (or rotates it alone, when they are the same cycle), maps j to j', and
    fixes every other point, those of the touched cycles among them.
    Conjugating the completed triple (a, b, c) by g gives (a, g b g^-1,
    g c g^-1): it keeps a, keeps every value of the partial b (its domain
    and image, and i, lie on touched cycles, which g fixes), takes i to j'
    in place of j, and has the same cycle types, product the identity and
    transitivity, as conjugation preserves each.

    So every cut removes only partial assignments that cannot be completed,
    or that another kept branch completes, and None means that no
    transitive triple exists; transitivity of <a, b> is tested at the
    leaves.  The kept j' is the lowest point of its class, so no call meets
    its first solution later than the search without this rule.
    """
    sizes = [conjugacy_class_size(n, t) for t in types]
    k = max(range(3), key=sizes.__getitem__)
    a = canonical_perm(n, types[k])
    a_inv = perm_inverse(a)
    # start[p] names the cycle of a through p by its first point, and
    # touch[start] counts that cycle's points in the domain and image of b,
    # plus one while its point is the open i
    start, clen = [], []
    for length in sorted(types[k], reverse=True):
        start += [len(start)] * length
        clen += [length] * length
    touch = [0] * n
    b_head, b_tail, b_size, b_need, b_lengths = _open_paths(n, types[(k + 1) % 3])
    m_head, m_tail, m_size, m_need, m_lengths = _open_paths(n, types[(k + 2) % 3])
    b = [-1] * n
    used = [False] * n

    def extend(i: int, placed: int) -> bool:
        # b(i) = j adds the edge i -> j to b and the edge x -> j to m; the
        # edge closes a cycle when j heads the path that ends at i (at x)
        x = a_inv[i]
        hb, hm = b_head[i], m_head[x]
        # the longest cycle each still needs; one is needed while a point is open
        for b_longest in b_lengths:
            if b_need[b_longest]:
                break
        for m_longest in m_lengths:
            if m_need[m_longest]:
                break
        si = start[i]
        touch[si] += 1
        tried = 0  # the length of the untouched cycle tried here, if any
        for j in range(n):
            if used[j]:
                continue
            sj = start[j]
            if not touch[sj]:
                # a's cycles of one length are consecutive, so the last
                # length tried is the only one to remember
                if j != sj or clen[j] == tried:
                    continue
                tried = clen[j]
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
            touch[sj] += 1
            if placed + 1 == n:
                if perms_transitive((a, b), n):
                    return True
            elif extend(a[j] if b[a[j]] < 0 else b.index(-1), placed + 1):
                return True
            b[i] = -1
            used[j] = False
            touch[sj] -= 1
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
        touch[si] -= 1
        return False

    found = extend(0, 0)
    # extend holds itself through its closure; dropping the name breaks that
    # cycle, so the search's lists are freed now rather than left for the
    # garbage collector
    del extend
    if not found:
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
    turns = (key, key[1:] + key[:1], key[2:] + key[:2])
    if types not in turns:
        key = key[::-1]
        triple = tuple([perm_inverse(s) for s in reversed(triple)])
        turns = (key, key[1:] + key[:1], key[2:] + key[:2])
    r = turns.index(types)
    return PermWitness(n, tuple(base3), triple[r:] + triple[:r])


def perm_cover_oracle(base: Orbifold2, n: int, budget: int = ORACLE_BUDGET) -> dict[tuple[int, ...], PermWitness]:
    """Enumerate the covers of the base orbifold at degree n that the
    classification tables classify: exactly the genus-0 covers with at most
    3 cone points, each keyed by its cone orders, sorted, with a witness.

    A transitive triple has total cycle count n + 2 exactly when the
    covering surface is S^2, and each branched part (a cycle shorter than
    its base order) lies under one cone point of the cover.  So the typesets
    (one divisor partition of n per base point) are walked in product order,
    visiting only those with n + 2 cycles and at most three branched parts.
    Each point reads its partitions with at most three branched parts, as
    branched parts, cover orders and unbranched count, from the bounded
    _branched_rows table of its (degree, point order), and the third point's
    rows are indexed by their number of parts.  A typeset whose cover orders
    already have a witness is skipped; the rest have their full cycle types
    built and go to _witness_for_types, which searches each multiset of
    types once and caches the answer, so a multiset that failed, here or for
    another base, is not searched again.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > budget:
        raise BudgetExceededError(budget)
    base3 = base.padded(3)
    va, vb, vc = base3
    # the third point's rows by their number of parts, branched and not
    third: dict[int, list] = {}
    for row in _branched_rows(n, vc):
        third.setdefault(row[2] + len(row[0]), []).append(row)
    rows_b = _branched_rows(n, vb)
    found: dict[tuple[int, ...], PermWitness] = {}
    for parts_a, orders_a, count_a in _branched_rows(n, va):
        want = n + 2 - count_a - len(parts_a)
        for parts_b, orders_b, count_b in rows_b:
            orders_ab = orders_a + orders_b
            rows = third.get(want - count_b - len(parts_b))
            if rows is None or len(orders_ab) > 3:
                continue
            for parts_c, orders_c, count_c in rows:
                if len(orders_ab) + len(orders_c) > 3:
                    continue
                orders = tuple(sorted(orders_ab + orders_c))
                if orders in found:
                    continue
                # the full cycle types, built only for a typeset searched
                types = ((va,) * count_a + parts_a, (vb,) * count_b + parts_b, (vc,) * count_c + parts_c)
                witness = _witness_for_types(n, base3, types)
                if witness is not None:
                    found[orders] = witness
    return dict(sorted(found.items()))


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

# the other chi < 0 rows: with _NEG_ROWS, Singerman's triangle-group list
_NEG_SPORADIC = (
    ((4, 4, 5), (2, 4, 5), 6),
    ((3, 3, 7), (2, 3, 7), 8),
    ((2, 7, 7), (2, 3, 7), 9),
    ((3, 8, 8), (2, 3, 8), 10),
    ((4, 8, 8), (2, 3, 8), 12),
    ((9, 9, 9), (2, 3, 9), 12),
    ((7, 7, 7), (2, 3, 7), 24),
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


def _is_row(cover: tuple[int, ...], base: tuple[int, ...], n: int, negative: bool) -> bool:
    """Whether cover -> base is a table row at n, its Riemann-Hurwitz degree,
    over a base of chi < 0 (negative) or chi > 0."""
    return cover == base or (_is_neg_row if negative else _is_pos_row)(cover, base, n)


# Hits: 110 of 149 calls per exceptional-scan round (seed 1, 39 entries), 31
# of 48 per generic-scan round (17 entries), 28 of 32 per verify-tables
# round (4 entries).  An entry (two order tuples and a DegreeSet, mostly the
# shared empty one) takes about 0.2 KB: 0.2 MB full.
@lru_cache(maxsize=1024)
def _classify_orders(cover: tuple[int, ...], base: tuple[int, ...]) -> DegreeSet:
    B = shared_orbifold(base)
    n = riemann_hurwitz_degree(shared_orbifold(cover), B)
    if n is UNCONSTRAINED:
        return _zero_degrees(cover, base)
    if n is not None and _is_row(cover, base, n, B.chi[0] < 0):
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


def _cone_divisors(orders: tuple[int, ...]) -> list[int]:
    """The divisors > 1 of the cone orders, ascending, each once: the cone
    orders a cover may have."""
    return sorted({d for v in orders for d in divisors(v) if d > 1})


# Hits: 1,159 of 1,324 calls per verify-tables round (seed 1), 1,410 of
# 1,575 over `--budget 30 verify-tables 30`, one entry per scanned base
# (165).  An entry (a dict of the frozensets of table covers of one base)
# takes 0.76 KB on average and 3.1 KB at most over the bases with orders
# <= 9, 0.13 MB for the 165; on a grid of bases with orders <= 72 it took
# 5.5 KB at most, so the full cache stays under 6 MB.
@lru_cache(maxsize=1024)
def _covers_by_degree(base: tuple[int, ...]) -> dict[int | str, frozenset[tuple[int, ...]]]:
    """The covers of S^2(base) with <= 3 cone points that classify_cover
    admits, keyed by degree, each degree's covers a frozenset.  A chi = 0
    base keeps its chi = 0 candidates, whose degrees chi does not fix,
    under the one key UNCONSTRAINED.

    Each cone order of a cover divides a base cone order, and a cover of
    degree n has chi(C) = n * chi(B), so the candidates are the multisets of
    at most 3 divisors of the base orders, each tried at its one degree by
    _is_row.  chi is scaled by the lcm of the base orders to stay an integer.
    The multisets are walked as three nested loops over 1 and the divisors,
    ascending, an order 1 standing for no cone point, and each loop takes
    its order's drop off a running chi sum, so a candidate costs one
    subtraction and one remainder, and only the few that pass build a tuple.
    """
    if len(base) > 3:
        raise ValueError("classification applies to orbifolds with <= 3 cone points")
    scale = lcm(*base)
    orders = [1, *_cone_divisors(base)]
    drops = [scale - scale // d for d in orders]  # what a cone point of order d takes off chi
    cb = 2 * scale - sum(scale - scale // v for v in base)
    negative = cb < 0
    m = len(orders)
    out: dict = {}
    for i in range(m):
        ci = 2 * scale - drops[i]
        for j in range(i, m):
            cj = ci - drops[j]
            for k in range(j, m):
                cc = cj - drops[k]
                if cb:
                    if cc % cb:
                        continue
                    n = cc // cb
                    if n < 1:
                        continue
                elif cc:
                    continue
                else:
                    n = UNCONSTRAINED
                cover = tuple(w for w in (orders[i], orders[j], orders[k]) if w > 1)
                if n is UNCONSTRAINED or _is_row(cover, base, n, negative):
                    out.setdefault(n, set()).add(cover)
    return {n: frozenset(covers) for n, covers in out.items()}


def table_covers(base: Orbifold2, n: int) -> frozenset[tuple[int, ...]]:
    """Cover orbifolds (as reduced order tuples) admitted at degree n by the
    classification tables, i.e. the C with n in classify_cover(C, base).

    Over a chi != 0 base this is the frozenset that _covers_by_degree keeps
    for n, returned as it is, with no copy; over a chi = 0 base, a frozenset
    of the UNCONSTRAINED candidates whose quadratic form takes the value n.
    """
    rows = _covers_by_degree(base.cone_orders)
    if base.chi[0]:
        return rows.get(n, frozenset())
    return frozenset(c for c in rows.get(UNCONSTRAINED, ()) if n in _classify_orders(c, base.cone_orders))


def summary_covers(base: Orbifold2, n: int) -> frozenset[tuple[int, ...]]:
    """Same, restricted to the abbreviated summary variant of the table, as
    a new frozenset; the difference against table_covers is the
    documented-discrepancy set."""
    return frozenset(c for c in table_covers(base, n) if (c, base.cone_orders, n) not in _SUMMARY_OMITS)


def oracle_covers(
    base: Orbifold2, n: int, budget: int = ORACLE_BUDGET
) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], PermWitness]]:
    """The permutation oracle's covers at degree n, the genus-0 covers with
    <= 3 cone points: their set, comparable with table_covers, and their
    witnesses.  verify_pair calls this module global, so a caller may swap
    it to record the witnesses that verify_pair does not return."""
    witnesses = perm_cover_oracle(base, n, budget)
    return set(witnesses), witnesses


@dataclass(frozen=True)
class PairReport:
    """Oracle-vs-tables comparison at one (base, degree) pair."""

    base: tuple[int, ...]
    degree: int
    oracle_only: tuple
    table_only: tuple
    documented: tuple

    @property
    def clean(self) -> bool:
        return not self.oracle_only and not self.table_only


def verify_pair(base: Orbifold2, n: int, budget: int = ORACLE_BUDGET) -> PairReport:
    """The oracle's covers of base at degree n (exactly the genus-0 covers
    with <= 3 cone points) against the tables' covers at n.  A pair whose
    two sets agree, as every pair of a passing verify-tables run does, builds
    no set difference; only a nonempty table set is read for the rows the
    summary variant omits."""
    oracle_set, _ = oracle_covers(base, n, budget)
    table_set = table_covers(base, n)
    orders = base.cone_orders
    oracle_only = table_only = documented = ()
    if oracle_set != table_set:
        oracle_only = tuple(sorted(oracle_set - table_set))
        table_only = tuple(sorted(table_set - oracle_set))
    if table_set:
        documented = tuple(sorted(c for c in table_set if (c, orders, n) in _SUMMARY_OMITS))
    return PairReport(base=orders, degree=n, oracle_only=oracle_only, table_only=table_only,
                      documented=documented)
