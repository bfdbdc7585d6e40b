"""
Cover calculus on Seifert fibered spaces and the end-to-end decision
"is there a covering map between two surgeries on the same torus knot?".

Every cover of Seifert fibered spaces factors as a fiberwise cover followed
by a pullback cover, so the decision runs: classify both surgeries, settle
the reducible / lens / infinite-homology cases directly, then try each
admissible base-orbifold cover (d, C), pull the base manifold back along its
partition systems, and look for the fiberwise factor pinned by the order of
first homology.

Degrees compose as total = fiberwise x orbifold.  Under a fiberwise cover of
degree d the covered manifold scales as {d b; (a_i, d beta_i)} (so |H_1|
multiplies by d going down); under a pullback of degree d the euler number
multiplies by d going up.  A pullback along C -> B also has exactly C's cone
orders as its fiber orders, so its |H_1| = d |H_1(base)| prod(C) / prod(B),
and with it the fiberwise degree, is fixed by the candidate (d, C) and checked
once for all of its partition systems.

Per candidate the stages run in this order: Riemann-Hurwitz and the table
(classify_cover) admit (d, C); the |H_1| divisibility test and, for an SFS
cover, the gcd of the fiberwise degree with C's cone orders are integer
checks on (d, C) alone; only then are the partition systems listed, each
pulled back and lifted.  Lemma: every candidate has at least one partition
system.  It is a row of classify_cover, so a real orbifold cover, and the
cycle types of that cover's monodromy satisfy the partition condition: at a
base point of order v each cycle has length k dividing v, a cone point of
order v/k of C when k < v and an unbranched part when k = v.  So
the arithmetic checks coming first change no decision, reason or
certificate; they only spare the listing for candidates that fail them.

Most pairs end at Riemann-Hurwitz.  The base orbifolds B and C come stored
on the cached classifications (classify_surgery builds each once), each
orbifold keeps its Euler characteristic as a reduced integer pair
(Orbifold2.chi, computed at construction and stored as a plain attribute,
since a descriptor that writes instance.__dict__ on first read would slow
every later read of the orbifold on CPython 3.11), and the degree test is
one divmod of those integers, before any table is read.  Every negative
decision whose detail does not depend on the pair is one shared
module-level constant, so a pair ruled out early builds no object.  decide_pair decides a -> b and,
when that does not cover, b -> a, from one classify_surgery lookup per slope
and with no decision cache; decide_cover and the cover command go through
it.  Two distinct SFS surgeries with p != 0 pass every check that comes
before Riemann-Hurwitz, so when its degree is no positive integer either
way, decide_pair answers the shared chi-mismatch for both directions
without running either (about 95% of a generic-scan round's pairs end so).
The cache keys of classify_surgery (and of the one-direction
decide_cover_directed) are tuples of core.Slope and core.TorusKnot, which
are namedtuples, so each lookup hashes in C; and fiberwise_lift tests that
b~ is an integer by one divmod on the integer Euler pair
(core.euler_pair), building no Fraction.  A partition system keeps its
branched parts and unbranched counts, which pullback folds into b in one
step, so nothing grows with the orbifold degree past orbcover.ORACLE_BUDGET.
Up to that degree a certificate carries a monodromy witness, which realises
its own partition system (its cycle types are the system's cycle_types());
the witness only cross-certifies and never decides a pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .core import (
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    euler_pair,
    lens_covers,
    sfs_equivalent,
    sfs_to_lens,
)
from .surgery import (
    LENS,
    REDUCIBLE,
    SFS,
    SurgeryClassification,
    classify_surgery,
    surgery_seifert_invariants,
)
from .orbcover import (
    ORACLE_BUDGET,
    PartitionSystem,
    PermWitness,
    _witness_for_types,
    classify_cover,
    divisors,
    partition_systems,
    riemann_hurwitz_degree,
)

# machine-checkable obstruction codes for NoCover decisions
REDUCIBILITY = "reducibility"
CHI_MISMATCH = "chi-mismatch"
NO_ORBIFOLD_COVER = "no-orbifold-cover"
H1_DIVISIBILITY = "h1-divisibility"
GCD_CONDITION = "gcd-condition"
LENS_DIVISIBILITY = "lens-divisibility"
REALIZATION_FAILURE = "realization-failure"
RANK = "rank"


# ---------------------------------------------------------------------------
# Fiberwise and pullback covers


def _check_fiberwise_degree(M: SeifertInvariants, d: int) -> None:
    """Raise unless d >= 1 is prime to every fiber order of M."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    for a, _ in M.fibers:
        if gcd(d, a) != 1:
            raise ValueError(f"gcd({d},{a}) != 1: no degree-{d} fiberwise cover")


def fiberwise_quotient(M: SeifertInvariants, d: int) -> SeifertInvariants:
    """The base {d b; (a_i, d beta_i)} of the degree-d fiberwise cover by M.

    Requires gcd(d, a_i) = 1 for every fiber (otherwise the scaled pairs are
    not coprime and no such cover exists).
    """
    _check_fiberwise_degree(M, d)
    return SeifertInvariants(d * M.b, tuple((a, d * be) for a, be in M.fibers))


def fiberwise_lift(M: SeifertInvariants, d: int) -> SeifertInvariants | None:
    """The degree-d fiberwise cover of M, or None when it does not exist.

    The beta invariants of the cover are forced modulo the fiber orders
    (beta~ = d^{-1} beta) and b~ by e(cover) = e(M)/d; the cover exists iff
    b~ comes out an integer.  Round trip: fiberwise_quotient(lift, d) is
    equivalent to M.
    """
    _check_fiberwise_degree(M, d)
    lifted = tuple((a, (pow(d, -1, a) * be) % a) for a, be in M.fibers)
    # b~ = -e(M)/d - sum beta~/alpha must come out an integer; with
    # e(M) = -num/den and sum beta~/alpha = s/den over the same den, that is
    # (num - d s) / (d den)
    num, den = euler_pair(M.b, M.fibers)
    s = euler_pair(0, lifted)[0]
    b, rem = divmod(num - d * s, d * den)
    if rem:
        return None
    return SeifertInvariants(b, lifted)


def pullback(M: SeifertInvariants, sys: PartitionSystem) -> SeifertInvariants:
    """The pullback cover of M along the base-orbifold cover encoded by sys.

    Each fiber (a, beta) over the base point of order a splits into one fiber
    (a/k, beta) per branched part k there, and each unbranched part gives a
    regular fiber (1, beta), so b' = d b + sum beta (d - sum parts) / a, one
    term per point.  Base points of the system with equal orders are matched
    to M's fibers in sorted order (systems differing by which equal-order
    point carries which partition are distinct systems).
    """
    orders = tuple(a for a, _ in M.fibers)
    sys_orders = tuple(v for v in sys.base_orders if v > 1)
    if orders != sys_orders:
        raise ValueError(
            f"partition system over S2{sys_orders} does not match base orbifold S2{orders}"
        )
    points = list(zip(M.fibers, [(parts, count) for v, parts, count
                                 in zip(sys.base_orders, sys.partitions, sys.unbranched) if v > 1]))
    b = sys.degree * M.b + sum(be * count for (_, be), (_, count) in points)
    return SeifertInvariants(b, tuple((a // k, be) for (a, be), (parts, _) in points for k in parts))


# ---------------------------------------------------------------------------
# Decision procedure


@dataclass(frozen=True)
class CoverCertificate:
    """Witness of a covering map between two surgeries.

    total_degree = fiberwise_degree * orbifold_degree.  intermediate is the
    pullback of the base manifold along the orbifold cover (the space the
    fiberwise factor lands on); for a trivial orbifold part it is just the
    base manifold.  perm_witness cross-certifies the orbifold cover; it is
    None when the orbifold degree is past orbcover.ORACLE_BUDGET.
    """

    cover_slope: Slope
    base_slope: Slope
    total_degree: int
    fiberwise_degree: int
    orbifold_degree: int
    partition_system: PartitionSystem | None = None
    perm_witness: PermWitness | None = None
    intermediate: SeifertInvariants | None = None

    def __post_init__(self):
        if self.total_degree != self.fiberwise_degree * self.orbifold_degree:
            raise ValueError("certificate degrees do not factor")


@dataclass(frozen=True)
class CoverDecision:
    covers: bool
    certificate: CoverCertificate | None = None
    reason: str | None = None
    detail: str = ""

    @property
    def degree(self) -> int | None:
        return self.certificate.total_degree if self.certificate else None


# Hits: 9 of 21 calls per exceptional-scan round (seed 1, full size), 797 of
# 1,051 over the box |p| <= 60, q <= 8 on five knots (254 entries).  An entry
# (a system and a witness of degree <= 12, or None) is under 0.75 KB: < 1 MB.
@lru_cache(maxsize=1024)
def _oracle_witness(sys: PartitionSystem) -> PermWitness | None:
    """A monodromy witness whose cycle types are sys.cycle_types(); None
    when the degree is past ORACLE_BUDGET."""
    if sys.degree > ORACLE_BUDGET:
        return None
    witness = _witness_for_types(sys.degree, sys.base_orders, sys.cycle_types())
    if witness is None:
        raise RuntimeError(
            f"table admits S2{sys.branch_orders()} -> S2{sys.base_orders} at degree "
            f"{sys.degree} but no monodromy realises the partitions {sys.cycle_types()}"
        )
    return witness


def _lens_candidate_bases(B: Orbifold2) -> list[Orbifold2]:
    """Base orbifolds a lens space can fiber over while covering B: S^2 and
    S^2(d,d) with d dividing an order of B.  They have chi > 0, so there are
    none when chi(B) <= 0."""
    if B.chi[0] <= 0:
        return []
    ds = {d for v in B.cone_orders for d in divisors(v)}
    return [Orbifold2((d, d)) if d > 1 else Orbifold2(()) for d in sorted(ds)]


# _chi_zero_degree factors by trial division up to this bound (about 0.2 s);
# a cofactor left with no prime factor up to it is 1 or a prime when it is
# below the bound squared, and is refused otherwise rather than left to run
MAX_TRIAL_DIVISOR = 10**6


def _chi_zero_degree(h_cover: int, h_base: int) -> int:
    """The one orbifold degree that decides a cover over a chi = 0 base.

    Only S^2(2,3,6) is such a surgery base (T(2,3) with n = 6), and an SFS
    cover of it fibers over S^2(2,3,6) too.

    Lemma.  Let m = h_cover / gcd(h_cover, h_base) and m2 the product of the
    primes = 2 (mod 3) that divide m to an odd power.  The surgery with
    |H_1| = h_cover covers the one with |H_1| = h_base iff it does at
    orbifold degree m * m2, which is then the least such degree.

    Proof.  The orbifold degree d_o is Loeschian, so its primes = 2 (mod 3)
    have even exponents, and the pullback's |H_1| = d_o * h_base must be a
    multiple of h_cover, so m | d_o.  Hence d_o = m * m2 * j with j
    Loeschian.  The fiberwise degree d_f = j * m2 * h_base / gcd(h_cover,
    h_base) must be prime to 6, so j is too, and as a Loeschian number is
    never 2 (mod 3), j = 1 (mod 6).  Placing the cover orders 2, 3, 6
    at the base points gives four partition systems, one for each degree
    class 1, 3, 4, 0 (mod 6), each valid at every positive degree of its
    class.  So every such j picks the system that j = 1 picks, with the same
    exceptional fibers in the pullback; the lift then depends only on d_f
    (mod 6), which is that of j = 1, since its euler number d_o e(B) / d_f
    is the same for every j.

    The degree m * m2 is itself Loeschian (its primes = 2 (mod 3) have even
    exponents), so classify_cover(S^2(2,3,6), S^2(2,3,6)), the Loeschian
    family, always admits it and is not consulted.

    m is factored by trial division up to MAX_TRIAL_DIVISOR; past it, the
    cofactor left has two prime factors or more only if it is at least the
    bound squared, so the answer stays exact below that, and a larger
    cofactor raises ValueError.
    """
    m = h_cover // gcd(h_cover, h_base)
    m2, rest, f = 1, m, 2
    while f * f <= rest:
        if f > MAX_TRIAL_DIVISOR:
            raise ValueError(
                f"over S^2(2,3,6) the degree needs |H_1| quotient {m} factored, and its cofactor "
                f"{rest} has no prime factor up to the trial-division limit of {MAX_TRIAL_DIVISOR:,}"
            )
        e = 0
        while rest % f == 0:
            rest //= f
            e += 1
        if e % 2 and f % 3 == 2:
            m2 *= f
        f += 1
    if rest % 3 == 2:
        m2 *= rest
    return m * m2


# The negative decisions whose detail is fixed, shared by every pair that
# ends in them.  CoverDecision is frozen, so sharing one is safe.
_NO_REDUCIBLE = CoverDecision(
    False, reason=REDUCIBILITY,
    detail="the unique reducible surgery only covers / is covered by itself",
)
_NO_RANK = CoverDecision(
    False, reason=RANK,
    detail="0-surgery (first betti number 1) is never covered by another surgery",
)
_NO_INFINITE_H1 = CoverDecision(
    False, reason=H1_DIVISIBILITY,
    detail="a surgery with infinite H_1 cannot cover one with finite H_1",
)
_NO_LENS_BASE = CoverDecision(
    False, reason=NO_ORBIFOLD_COVER,
    detail="covers of lens spaces are lens spaces",
)
_NO_CHI_MISMATCH = CoverDecision(
    False, reason=CHI_MISMATCH,
    detail="orbifold Euler characteristics admit no integer degree",
)
_NO_CANDIDATES = CoverDecision(
    False, reason=NO_ORBIFOLD_COVER,
    detail="no admissible cover between the base orbifolds",
)
# When every candidate fails, the obstruction from the deepest stage.
_NO_DEEPEST = tuple(
    (reason, CoverDecision(False, reason=reason))
    for reason in (REALIZATION_FAILURE, GCD_CONDITION, LENS_DIVISIBILITY, H1_DIVISIBILITY)
)
_NO_COVER = CoverDecision(False, reason=NO_ORBIFOLD_COVER)


def _decide_directed(
    cover_slope: Slope,
    base_slope: Slope,
    cov: SurgeryClassification,
    base: SurgeryClassification,
) -> CoverDecision:
    """Decide whether the cover_slope surgery, classified as cov, covers the
    base_slope surgery, classified as base.  Uncached: decide_pair and
    decide_cover_directed hold the classifications and call this.

    Each candidate (d_o, C) passes Riemann-Hurwitz and the table, then the
    H1 divisibility and gcd checks, and only then has its partition systems
    listed, pulled back and lifted.  Every candidate has a system (lemma in
    the module docstring), so a candidate that fails the arithmetic is
    rejected with the reason the listing would have led to.
    """
    if cover_slope == base_slope:
        cert = CoverCertificate(cover_slope, base_slope, 1, 1, 1)
        return CoverDecision(True, cert, detail="identical surgeries")
    if cov.kind == REDUCIBLE or base.kind == REDUCIBLE:
        return _NO_REDUCIBLE
    if base_slope.p == 0:
        return _NO_RANK
    if cover_slope.p == 0:
        return _NO_INFINITE_H1
    if cov.kind == LENS and base.kind == LENS:
        d = lens_covers(cov.lens, base.lens)
        if d is None:
            return CoverDecision(
                False, reason=LENS_DIVISIBILITY,
                detail=f"{cov.lens} does not divide into {base.lens}",
            )
        cert = CoverCertificate(cover_slope, base_slope, d, d, 1)
        return CoverDecision(True, cert, detail="lens space cover")
    if base.kind == LENS:
        return _NO_LENS_BASE

    B = base.orbifold
    if cov.kind == SFS:
        C = cov.orbifold
        if riemann_hurwitz_degree(C, B) is None:
            return _NO_CHI_MISMATCH
        C_list = [C]
    else:
        C_list = _lens_candidate_bases(B)
    h_cover = abs(cover_slope.p)
    candidates: list[tuple[int, Orbifold2]] = []
    chi_zero = not B.chi[0]
    for C in C_list:
        if chi_zero:  # one degree decides, and C = B admits it (see _chi_zero_degree)
            candidates.append((_chi_zero_degree(h_cover, abs(base_slope.p)), C))
        else:
            candidates.extend((d, C) for d in sorted(classify_cover(C, B).finite))
    candidates.sort(key=lambda t: (t[0], t[1].cone_orders))

    obstructions = set()
    for d_o, C in candidates:
        # |H_1| of the pullback along any of the systems (module docstring)
        hbar = d_o * abs(base_slope.p) * prod(C.cone_orders) // prod(B.cone_orders)
        if hbar % h_cover:
            obstructions.add(H1_DIVISIBILITY)
            continue
        d_f = hbar // h_cover
        if cov.kind == SFS and any(gcd(d_f, w) != 1 for w in C.cone_orders):
            obstructions.add(GCD_CONDITION)
            continue
        for sys in reversed(partition_systems(C, B, d_o)):  # ascending partitions
            inter = pullback(base.invariants, sys)
            if cov.kind == LENS:
                dd = lens_covers(cov.lens, sfs_to_lens(inter))
                if dd is None:
                    obstructions.add(LENS_DIVISIBILITY)
                    continue
                assert dd == d_f
            else:
                lifted = fiberwise_lift(inter, d_f)
                if lifted is None or not sfs_equivalent(lifted, cov.invariants):
                    obstructions.add(REALIZATION_FAILURE)
                    continue
            cert = CoverCertificate(
                cover_slope,
                base_slope,
                d_o * d_f,
                d_f,
                d_o,
                partition_system=sys,
                perm_witness=_oracle_witness(sys),
                intermediate=inter,
            )
            return CoverDecision(True, cert)

    if not candidates:
        return _NO_CANDIDATES
    # all candidates failed; report the obstruction from the deepest stage
    for reason, decision in _NO_DEEPEST:
        if reason in obstructions:
            return decision
    return _NO_COVER


@lru_cache(maxsize=1 << 20)
def decide_cover_directed(K: TorusKnot, cover_slope: Slope, base_slope: Slope) -> CoverDecision:
    """Decide whether the cover_slope surgery covers the base_slope surgery.

    One direction, cached.  decide_cover and the cover command go through
    decide_pair and leave this cache empty.  It serves only a caller that
    asks the same directed pair again; a scan of directed pairs (the
    exceptional box) asks each once, so there it only fills, up to 1 << 20
    entries.  It stays because bench/tracing.py reads its cache_info().
    """
    return _decide_directed(
        cover_slope,
        base_slope,
        classify_surgery(K, cover_slope),
        classify_surgery(K, base_slope),
    )


def decide_pair(K: TorusKnot, slope_a: Slope, slope_b: Slope) -> tuple[CoverDecision, CoverDecision | None]:
    """Decide a -> b, then b -> a when a -> b does not cover.

    Each slope is classified once for both directions, and no decision is
    cached.  Returns (forward, reverse): forward decides a -> b, and
    reverse decides b -> a, or is None when forward covers and b -> a was
    not asked.

    Two distinct SFS surgeries with p != 0 pass every check before
    Riemann-Hurwitz in _decide_directed, so when its degree is no positive
    integer either way, both directions are settled here as chi-mismatch
    (most pairs of a generic knot end so).  Every other pair, a chi = 0
    pair included, goes through _decide_directed.
    """
    ca = classify_surgery(K, slope_a)
    cb = classify_surgery(K, slope_b)
    if (
        ca.kind == SFS and cb.kind == SFS and slope_a != slope_b and slope_a.p and slope_b.p
        and riemann_hurwitz_degree(ca.orbifold, cb.orbifold) is None
        and riemann_hurwitz_degree(cb.orbifold, ca.orbifold) is None
    ):
        return _NO_CHI_MISMATCH, _NO_CHI_MISMATCH
    forward = _decide_directed(slope_a, slope_b, ca, cb)
    if forward.covers:
        return forward, None
    return forward, _decide_directed(slope_b, slope_a, cb, ca)


def decide_cover(K: TorusKnot, slope_a: Slope, slope_b: Slope) -> CoverDecision:
    """Decide whether a covering map exists between the two surgeries, in
    either direction; the certificate names which slope is the cover.

    (The covering direction between two given surgeries is not always the
    order the caller wrote them in, so both are tried by decide_pair: a -> b
    first, then b -> a.)  A positive decision is the one that covers; a
    negative one is a -> b's, whose obstruction it reports.
    """
    forward, reverse = decide_pair(K, slope_a, slope_b)
    if reverse is not None and reverse.covers:
        return reverse
    return forward


# ---------------------------------------------------------------------------
# Closed-form fast path for the generic torus knots


_EXCLUDED_KNOTS = {(3, 4), (3, 5), (4, 5), (3, 7), (3, 8)}


def torus_main_fastpath(K: TorusKnot, slope_a: Slope, slope_b: Slope) -> int | None:
    """Arithmetic cover test for T(r,s) with r,s > 2 away from the knots
    carrying exceptional orbifold covers.  Only fiberwise covers exist for
    these knots, so the test is: equal |rsq - p|, divisibility of the
    homology orders, degree coprime to the three fiber orders, and matching
    fiber data (the degree-scaled invariants of the smaller surgery must
    present the larger one, up to mirror).

    Returns the covering degree (cover = the slope with smaller |p|), or
    None.  Raises on excluded knots.
    """
    r, s = K.r, K.s
    pair = (min(r, s), max(r, s))
    if pair[0] <= 2 or pair in _EXCLUDED_KNOTS:
        raise ValueError(f"{K} is outside the fast-path hypotheses")
    n1 = abs(r * s * slope_a.q - slope_a.p)
    n2 = abs(r * s * slope_b.q - slope_b.p)
    if n1 != n2:
        return None
    n = n1
    pa, pb = slope_a.p, slope_b.p
    if pa == 0 or pb == 0:
        return 1 if slope_a == slope_b else None
    small, big = (slope_a, slope_b) if abs(pa) <= abs(pb) else (slope_b, slope_a)
    if abs(big.p) % abs(small.p):
        return None
    d = abs(big.p) // abs(small.p)
    if n == 0:
        return 1 if d == 1 else None
    if gcd(d, r * s) != 1 or gcd(d, n) != 1:
        return None
    if n == 1:
        return d
    m_small = surgery_seifert_invariants(K, small)
    m_big = surgery_seifert_invariants(K, big)
    if sfs_equivalent(fiberwise_quotient(m_small, d), m_big):
        return d
    return None
