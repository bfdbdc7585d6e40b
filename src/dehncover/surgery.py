"""
Classification of p/q surgery on the torus knot T(r,s), its Seifert
invariants, and the search for slopes realizing a given target manifold.

With n = |rsq - p|: the surgery is a connected sum of two lens spaces when
n = 0, a lens space L(p, q s^2) when n = 1, and otherwise a Seifert fibered
space over S^2(r, s, n).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .core import (
    LensSpace,
    Orbifold2,
    SeifertInvariants,
    Slope,
    TorusKnot,
    _modinv,
    h1_order,
    lens_equivalent,
    normalize,
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
    lens summands L(r,s) # L(s,r)).
    """

    kind: str
    n: int
    invariants: SeifertInvariants | None = None
    lens: LensSpace | None = None
    summands: tuple[tuple[int, int], tuple[int, int]] | None = None

    def base_orbifold(self) -> Orbifold2:
        if self.kind != SFS:
            raise ValueError("only SFS surgeries have a canonical base orbifold")
        return self.invariants.base_orbifold()


@lru_cache(maxsize=1 << 18)
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


@lru_cache(maxsize=1 << 18)
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
    beta1 = (-eps * _modinv(s, r)) % r
    beta2 = (-eps * _modinv(r, s)) % s
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
    bound: int = 32,
) -> list[Slope]:
    """All slopes whose surgery on K gives the target manifold (up to
    orientation-reversing homeomorphism).

    For an SFS target the search is finite: |p| is the order of H_1 and q is
    pinned by rsq = p +- n.  For a lens target, slopes with 1 <= q <= bound
    and |rsq - p| = 1 are scanned; an empty list means not realized within
    the bound.
    """
    r, s = K.r, K.s
    if isinstance(target, SeifertInvariants):
        M = normalize(target)
        if len(M.fibers) <= 2:
            return find_surgery_slopes(K, sfs_to_lens(M), bound)
        if len(M.fibers) != 3:
            return []
        orders = [a for a, _ in M.fibers]
        for v in (r, s):
            if v not in orders:
                return []
            orders.remove(v)
        n = orders[0]
        found = []
        for slope in slope_candidates(K, n, h1_order(M)):
            cl = classify_surgery(K, slope)
            if cl.kind == SFS and sfs_equivalent(cl.invariants, M):
                found.append(slope)
        return found

    found = []
    for q in range(1, bound + 1):
        for p in (r * s * q - 1, r * s * q + 1):
            if abs(p) != target.p or gcd(p, q) != 1:
                continue
            cl = classify_surgery(K, Slope(p, q))
            if cl.kind == LENS and lens_equivalent(cl.lens, target):
                found.append(Slope(p, q))
    return sorted(set(found))
