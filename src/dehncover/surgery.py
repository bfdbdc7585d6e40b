"""
Classification of p/q surgery on the torus knot T(r,s), its Seifert
invariants, and the search for slopes realizing a given target manifold.

With n = |rsq - p|: the surgery is a connected sum of two lens spaces when
n = 0, a lens space L(p, q s^2) when n = 1, and otherwise a Seifert fibered
space over S^2(r, s, n).  classify_surgery is cached, and builds that base
orbifold once per surgery, with the classification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .core import (
    LensSpace,
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    h1_order,
    sfs_equivalent,
    sfs_to_lens,
)

SFS = "sfs"
LENS = "lens"
REDUCIBLE = "reducible"


@dataclass(frozen=True)
class SurgeryClassification:
    """Result of classifying one surgery.

    kind is "sfs" (n > 1, invariants set), "lens" (n = 1, lens set) or
    "reducible" (n = 0, summands set to the raw (p, q) parameters of the two
    lens summands L(r,s) # L(s,r)).  An SFS surgery's base orbifold
    S^2(r, s, n) is built once, when classify_surgery builds the
    classification, and base_orbifold returns that object.
    """

    kind: str
    n: int
    invariants: SeifertInvariants | None = None
    lens: LensSpace | None = None
    summands: tuple[tuple[int, int], tuple[int, int]] | None = None
    orbifold: Orbifold2 | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == SFS:
            object.__setattr__(self, "orbifold", self.invariants.base_orbifold())

    def base_orbifold(self) -> Orbifold2:
        if self.kind != SFS:
            raise ValueError("only SFS surgeries have a canonical base orbifold")
        return self.orbifold


# Hits: 2,522 of 2,604 calls per exceptional-scan round (seed 1, 82
# entries), 15,872 of 16,128 per generic-scan round (256 entries), 770,661 of
# 771,282 per knot of the criterion-5 scan (621 entries; its four knots make
# 2,484, the five of the exceptional box 3,105), so no scan evicts.  An entry
# (key, classification, invariants and base orbifold) takes about 0.9 KB:
# 3.6 MB full.
@lru_cache(maxsize=1 << 12)
def classify_surgery(K: TorusKnot, slope: Slope) -> SurgeryClassification:
    """Classify p/q surgery on T(r,s) by n = |rsq - p|."""
    if slope.is_infinity:
        raise ValueError("infinity slope gives back S^3; surgery operations reject it")
    r, s, p, q = K.r, K.s, slope.p, slope.q
    n = abs(r * s * q - p)
    if n == 0:
        return SurgeryClassification(REDUCIBLE, 0, summands=((r, s), (s, r)))
    if n == 1:
        return SurgeryClassification(LENS, 1, lens=LensSpace(p, q * s * s))
    return SurgeryClassification(SFS, n, invariants=surgery_seifert_invariants(K, slope))


def surgery_seifert_invariants(K: TorusKnot, slope: Slope) -> SeifertInvariants:
    """Seifert invariants of p/q surgery on T(r,s) when n = |rsq - p| >= 2.

    The returned representative is the one with euler number -p/(rsn); the
    opposite mirror presents the same unoriented manifold, so comparisons
    should go through sfs_equivalent.  The fiber data is pinned by
    beta_1 = -eps s^{-1} mod r and beta_2 = -eps r^{-1} mod s with
    eps = sign(rsq - p), after which beta_3 and b are forced by the euler
    number (flipping eps amounts to taking the global mirror, never a
    per-fiber sign).
    """
    r, s, p, q = K.r, K.s, slope.p, slope.q
    if slope.is_infinity:
        raise ValueError("infinity slope rejected")
    n = abs(r * s * q - p)
    if n < 2:
        raise ValueError(f"{p}/{q} surgery on {K} is not a small SFS (n = {n})")
    eps = 1 if r * s * q - p > 0 else -1
    beta1 = (-eps * pow(s, -1, r)) % r
    beta2 = (-eps * pow(r, -1, s)) % s
    # solve rsn*b + sn*beta1 + rn*beta2 + rs*beta3 = p for integers (b, beta3)
    rest = p - s * n * beta1 - r * n * beta2
    assert rest % (r * s) == 0, "congruence convention failure"
    y = rest // (r * s)
    beta3 = y % n
    b = (y - beta3) // n
    M = SeifertInvariants(b, ((r, beta1), (s, beta2), (n, beta3)))
    assert h1_order(M) == abs(p)
    return M


def slope_candidates(K: TorusKnot, n: int, h1: int) -> list[Slope]:
    """All slopes p/q with |p| = h1 and |rsq - p| = n, q >= 1, gcd(p,q) = 1.

    This is the arithmetic part of the realization search: a manifold with
    base orbifold S^2(r, s, n) and first homology of order h1 can only come
    from one of these slopes (h1 = 0 encodes infinite H_1, forcing p = 0).
    """
    rs = K.r * K.s
    candidates = []
    ps = (0,) if h1 == 0 else (h1, -h1)
    for p in ps:
        for sign in (1, -1):
            num = p + sign * n
            if num % rs != 0:
                continue
            q = num // rs
            if q < 1 or gcd(p, q) != 1:
                continue
            candidates.append(Slope(p, q))
    return sorted(set(candidates))


def find_surgery_slopes(
    K: TorusKnot,
    target: SeifertInvariants | LensSpace,
) -> list[Slope]:
    """All slopes whose surgery on K gives the target manifold (up to
    orientation-reversing homeomorphism).

    The search is finite: |p| is the order of H_1 and q is pinned by
    rsq = p +- n, with n = 1 for a lens target (a presentation with <= 2
    exceptional fibers is read as its lens space) and n the fiber order
    besides r and s for an SFS target.
    """
    if isinstance(target, SeifertInvariants) and len(target.fibers) <= 2:
        target = sfs_to_lens(target)
    if isinstance(target, LensSpace):
        return [
            slope for slope in slope_candidates(K, 1, target.p)
            if classify_surgery(K, slope).lens == target
        ]
    orders = [a for a, _ in target.fibers]
    for v in (K.r, K.s):
        if v not in orders:
            return []
        orders.remove(v)
    if len(orders) != 1:
        return []
    return [
        slope for slope in slope_candidates(K, orders[0], h1_order(target))
        if sfs_equivalent(classify_surgery(K, slope).invariants, target)
    ]
