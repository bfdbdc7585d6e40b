"""
The four benchmark workloads: seeded inputs, one round of timed ops, and
the answer checks, which run after the round and outside every timed op.

A round is one pass over a workload's inputs with every program cache
cleared first, which is what one CLI process does.  Each op calls a public
function of dehncover the way the matching CLI command does, looked up on
its module at call time so that traced runs see the wrappers.
"""
from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from math import gcd
from time import perf_counter

from dehncover import cli, core, hyperbolic, orbcover, sfscover, surgery
from dehncover.core import Orbifold2, Slope, TorusKnot

import census as census_gen

FAILED = object()  # the answer of an op that raised; every check counts it wrong


class Clock:
    """Times ops one by one; an op that raises counts as failed."""

    def __init__(self):
        self.lat = array("d")
        self.busy = 0.0  # timed work a user waits for that is not an op
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn, *args):
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # one failed op must not end the run
            self.lat.append(perf_counter() - t0)
            self.failed += 1
            self.errors.append(f"op failed: {fn.__name__}{args}: {exc!r}")
            return FAILED
        self.lat.append(perf_counter() - t0)
        return out

    def timed(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.busy += perf_counter() - t0
        return out


@lru_cache(maxsize=None)  # the checks ask for the same few orders every round
def chi(orders: tuple) -> Fraction:
    """Orbifold Euler characteristic of S^2 with the given cone orders."""
    return 2 - sum((1 - Fraction(1, a) for a in orders if a > 1), Fraction(0))


def slope_box(pmax: int, qmax: int) -> list[Slope]:
    return [Slope(p, q) for q in range(1, qmax + 1) for p in range(-pmax, pmax + 1) if gcd(p, q) == 1]


# ---------------------------------------------------------------------------
# exceptional-scan


EXC_KNOTS = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5))
# Each knot's slopes come from the box |p| <= P, 1 <= q <= Q, stratified by
# n = |rsq - p|.  For each n <= LOW_N (the small bases S2(r,s,n) and the lens
# surgeries, where covers of orbifold degree > 1 live) the slope is fixed:
# the one with the least q, then the least |p|.  The pairs among these hold
# nearly all of a round's time, the costliest about 80 ms, and when they
# were drawn, which of them a seed took set the cost of its rounds.  The
# seed draws HIGH slopes of larger n and the order of all of them.
EXC_SIZES = {"full": dict(box=(36, 4), high=8), "small": dict(box=(20, 3), high=3)}
LOW_N = 6
# Covers on T(2,3) worked by hand in the paper and the tests:
# (cover, base, degree); they are in every exceptional-scan input.
KNOWN_COVERS = (
    ((3, 1), (1, 1), 5),
    ((3, 1), (2, 1), 2),
    ((5, 1), (20, 3), 12),
    ((9, 1), (9, 2), 1),
    ((9, 2), (9, 1), 1),
)


@dataclass
class ScanInputs:
    knots: list = field(default_factory=list)  # [(TorusKnot, [(slope a, slope b)])]


def ordered_pairs(slopes: list[Slope]) -> list[tuple[Slope, Slope]]:
    return [(a, b) for a in slopes for b in slopes if a != b]


def scan_round(inp: ScanInputs, clock: Clock, op) -> list:
    return [(K, a, b, clock.op(op, K, a, b)) for K, pairs in inp.knots for a, b in pairs]


def exceptional_inputs(seed: int, size: str) -> ScanInputs:
    cfg = EXC_SIZES[size]
    rng = random.Random(f"exceptional-scan/{seed}")
    box = slope_box(*cfg["box"])
    known = sorted({Slope(*s) for c, b, _ in KNOWN_COVERS for s in (c, b)})
    out = ScanInputs()
    for r, s in EXC_KNOTS:
        K = TorusKnot(r, s)
        fixed = known if (r, s) == (2, 3) else []
        strata: dict[int, list[Slope]] = {}
        for sl in box:
            if sl in fixed:
                continue
            n = abs(r * s * sl.q - sl.p)
            strata.setdefault(min(n, LOW_N + 1), []).append(sl)
        chosen = list(fixed)
        for n, pool in sorted(strata.items()):
            if n > LOW_N:
                chosen += rng.sample(pool, min(cfg["high"], len(pool)))
            else:
                chosen.append(min(pool, key=lambda sl: (sl.q, abs(sl.p), sl.p)))
        rng.shuffle(chosen)
        out.knots.append((K, ordered_pairs(chosen)))
    return out


def exceptional_round(inp: ScanInputs, clock: Clock) -> list:
    return scan_round(inp, clock, sfscover.decide_cover_directed)


def check_certificate(K: TorusKnot, dec) -> str | None:
    """Compose a positive certificate forward; None when it holds."""
    cert = dec.certificate
    if cert is None:
        return "positive decision without a certificate"
    if cert.total_degree != cert.fiberwise_degree * cert.orbifold_degree:
        return "degrees do not factor"
    cov = surgery.classify_surgery(K, cert.cover_slope)
    base = surgery.classify_surgery(K, cert.base_slope)
    if cov.kind == surgery.LENS and base.kind == surgery.LENS:
        d = core.lens_covers(cov.lens, base.lens)
        if (d, cert.orbifold_degree) != (cert.total_degree, 1):
            return f"lens cover degree {d}, certificate says {cert.total_degree}"
        return None
    if base.kind != surgery.SFS:
        return f"cover of a {base.kind} surgery"
    sys_ = cert.partition_system
    if sys_ is None or cert.intermediate is None:
        return "SFS cover without partition system or intermediate"
    if sys_.degree != cert.orbifold_degree:
        return f"partition system degree {sys_.degree} != orbifold degree {cert.orbifold_degree}"
    if core.normalize(sfscover.pullback(base.invariants, sys_)) != core.normalize(cert.intermediate):
        return "pullback of the base along the partition system is not the intermediate"
    C = sys_.cover_orbifold().cone_orders
    B = base.invariants.base_orbifold().cone_orders
    if chi(C) != cert.orbifold_degree * chi(B):
        return f"chi(S2{C}) != {cert.orbifold_degree} * chi(S2{B})"
    w = cert.perm_witness
    if w is not None and (w.degree, w.cover_orders()) != (sys_.degree, C):
        return "permutation witness and partition system disagree on the cover"
    d_f = cert.fiberwise_degree
    if cov.kind == surgery.LENS:
        inter_lens = core.sfs_to_lens(cert.intermediate)
        if core.lens_covers(cov.lens, inter_lens) != d_f:
            return f"{cov.lens} does not cover {inter_lens} in degree {d_f}"
        return None
    if cov.invariants.base_orbifold().cone_orders != C:
        return "cover orbifold is not the cover manifold's base"
    try:
        quotient = sfscover.fiberwise_quotient(cov.invariants, d_f)
    except ValueError as exc:
        return f"fiberwise quotient fails: {exc}"
    if not core.sfs_equivalent(quotient, cert.intermediate):
        return f"fiberwise quotient by {d_f} does not present the intermediate"
    return None


def exceptional_check(inp: ScanInputs, results: list) -> list[str]:
    errors = []
    found = {}
    for K, a, b, dec in results:
        found[(K.r, K.s, a, b)] = dec
        if dec is FAILED:
            errors.append(f"{K} {a} -> {b}: the op raised")
        elif dec.covers:
            bad = check_certificate(K, dec)
            if bad is None and (dec.certificate.cover_slope, dec.certificate.base_slope) != (a, b):
                bad = "certificate slopes are not the asked pair"
            if bad:
                errors.append(f"{K} {a} -> {b}: {bad}")
    for c, b, deg in KNOWN_COVERS:
        dec = found.get((2, 3, Slope(*c), Slope(*b)))
        if dec is None:
            errors.append(f"T(2,3) {Slope(*c)} -> {Slope(*b)} was not asked")
        elif dec is FAILED or not (dec.covers and dec.degree == deg):
            errors.append(f"T(2,3) {Slope(*c)} -> {Slope(*b)} must cover in degree {deg}, got {dec}")
    return errors


def covers_per_knot(results: list) -> dict[str, int]:
    counts: dict[str, int] = {}
    for K, _a, _b, dec in results:
        counts.setdefault(str(K), 0)
        if dec is not FAILED and dec.covers:
            counts[str(K)] += 1
    return counts


# ---------------------------------------------------------------------------
# generic-scan


GEN_KNOTS = ((4, 7), (5, 6), (5, 7), (6, 7))
# Two disjoint samples A and B per knot from |p| <= 60, 1 <= q <= 8 (the
# CLI's scan bounds).  Every ordered pair within A is asked, so each of
# those is asked both ways and the second ask is served by the decision
# cache; each pair of A x B is asked once.  A quarter of the ops are then
# cache hits, which keeps the median op off the step between hits and
# misses.  A holds exactly one lens surgery (n = |rsq - p| = 1, two slopes
# per q of the box): lens pairs take the costlier lens-candidate path, and a
# number of them left to the draw moved op_p99_ms by a third between seeds.
GEN_SIZES = {"full": dict(box=(60, 8), within=32, across=32), "small": dict(box=(60, 8), within=12, across=12)}


def generic_inputs(seed: int, size: str) -> ScanInputs:
    cfg = GEN_SIZES[size]
    rng = random.Random(f"generic-scan/{seed}")
    box = slope_box(*cfg["box"])
    out = ScanInputs()
    for r, s in GEN_KNOTS:
        lens = [sl for sl in box if abs(r * s * sl.q - sl.p) == 1]
        rest = [sl for sl in box if abs(r * s * sl.q - sl.p) != 1]
        drawn = rng.sample(rest, cfg["within"] - 1 + cfg["across"])
        A = [rng.choice(lens)] + drawn[:cfg["within"] - 1]
        B = drawn[cfg["within"] - 1:]
        out.knots.append((TorusKnot(r, s), [(a, b) for a in A for b in A + B if a != b]))
    return out


def generic_round(inp: ScanInputs, clock: Clock) -> list:
    return scan_round(inp, clock, sfscover.decide_cover)


def generic_check(inp: ScanInputs, results: list) -> list[str]:
    errors = []
    for K, a, b, dec in results:
        if dec is FAILED:
            errors.append(f"{K} {a} ~ {b}: the op raised")
            continue
        want = sfscover.torus_main_fastpath(K, a, b)
        got = dec.degree if dec.covers else None
        if got != want:
            errors.append(f"{K} {a} ~ {b}: decision degree {got}, closed form {want}")
        elif dec.covers and abs(a.p) != abs(b.p) and abs(dec.certificate.cover_slope.p) != min(abs(a.p), abs(b.p)):
            errors.append(f"{K} {a} ~ {b}: the cover must be the slope with smaller |p|")
    return errors


# ---------------------------------------------------------------------------
# verify-tables


VERIFY_N = {"full": 8, "small": 5}
BUDGET = 12


def verify_inputs(seed: int, size: str) -> list[tuple[Orbifold2, int]]:
    """Every (base, degree) pair `dehncover verify-tables N` checks, in an
    order drawn from the seed."""
    n_max = VERIFY_N[size]
    extra = {o for _c, o, _n in cli.TARGETED_ROWS}
    pairs = {(b.cone_orders, n) for b in cli._scan_bases(9) for n in range(1, min(n_max, 9) + 1)}
    pairs |= {(o, n) for o in extra for n in range(10, n_max + 1)}
    pairs = sorted(pairs | {(o, n) for _c, o, n in cli.TARGETED_ROWS})
    random.Random(f"verify-tables/{seed}").shuffle(pairs)
    return [(Orbifold2(o), n) for o, n in pairs]


def verify_round(pairs: list, clock: Clock) -> list:
    """verify_pair does not return the oracle's witnesses, so the call it
    makes to orbcover.oracle_covers is recorded for the check."""
    seen = {}
    real = orbcover.oracle_covers

    def recording(base, n, budget=BUDGET):
        out = real(base, n, budget)
        seen[(base.cone_orders, n)] = out[1]
        return out

    orbcover.oracle_covers = recording
    try:
        reports = [(base, n, clock.op(orbcover.verify_pair, base, n, BUDGET)) for base, n in pairs]
    finally:
        orbcover.oracle_covers = real
    return [(base, n, rep, seen.get((base.cone_orders, n))) for base, n, rep in reports]


def verify_check(pairs: list, results: list) -> list[str]:
    errors = []
    for base, n, rep, witnesses in results:
        if rep is FAILED:
            errors.append(f"{base} @ {n}: the op raised")
            continue
        if not rep.clean:
            errors.append(f"{base} @ {n}: oracle-only {rep.oracle_only}, table-only {rep.table_only}")
        for orders, w in (witnesses or {}).items():
            if w.degree != n or w.cover_orders() != orders:
                errors.append(f"{base} @ {n}: witness for S2{orders} has degree {w.degree}")
            elif chi(orders) != n * chi(base.cone_orders):
                errors.append(f"{base} @ {n}: chi(S2{orders}) != {n} * chi({base})")
    return errors


# ---------------------------------------------------------------------------
# census-audit


CENSUS_RECORDS = {"full": 1000, "small": 60}


def census_inputs(seed: int, size: str, workdir: str) -> census_gen.Census:
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"census-{seed}-{os.getpid()}.txt")
    return census_gen.generate(path, seed, CENSUS_RECORDS[size])


def census_round(inp: census_gen.Census, clock: Clock) -> list:
    records, errors = clock.timed(hyperbolic.read_census, inp.path)
    reports = [clock.op(hyperbolic.audit_knot, rec) for rec in records]
    return [("parse", errors, len(records))] + reports


def census_check(inp: census_gen.Census, results: list) -> list[str]:
    (_tag, parse_errors, n_read), reports = results[0], results[1:]
    errors = [f"census line rejected: {e}" for e in parse_errors]
    if n_read != len(inp.records):
        errors.append(f"read {n_read} records, wrote {len(inp.records)}")
    by_name = {}
    for gen, rep in zip(inp.records, reports):
        if rep is FAILED:
            errors.append(f"{gen.name}: the op raised")
            continue
        if rep.knot != gen.name:
            errors.append(f"audit report for {rep.knot} where {gen.name} was written")
            continue
        by_name[gen.name] = rep
        short = [r for r in rep.rows if r.cover_slope == "*"]
        if len(short) > 32:
            errors.append(f"{gen.name}: {len(short)} short slopes, the cap is 32")
        got = {tuple(int(v) for v in r.base_slope.split("/")) for r in short}
        missing, spurious = gen.must - got, got - gen.allowed
        if missing or spurious:
            errors.append(f"{gen.name}: short slopes missing {sorted(missing)}, spurious {sorted(spurious)}")
    for pl in inp.planted:
        rep = by_name.get(pl.record)
        if rep is None:  # its op raised, which is counted above
            continue
        cover, base = "%d/%d" % pl.cover, "%d/%d" % pl.base
        hit = any(r.status == "survivor" and r.cover_slope == cover and r.base_slope == base
                  and pl.degree in r.degrees for r in rep.rows)
        if hit != pl.survives:
            errors.append(f"{pl.record}: planted {pl.kind} match {cover} -> {base} in degree "
                          f"{pl.degree} {'missed' if pl.survives else 'not removed'}")
    return errors


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: object  # (seed, size, workdir) -> inputs
    round: object   # (inputs, Clock) -> results
    check: object   # (inputs, results) -> list of error strings


WORKLOADS = {
    "exceptional-scan": Workload(
        lambda seed, size, wd: exceptional_inputs(seed, size), exceptional_round, exceptional_check),
    "generic-scan": Workload(
        lambda seed, size, wd: generic_inputs(seed, size), generic_round, generic_check),
    "verify-tables": Workload(
        lambda seed, size, wd: verify_inputs(seed, size), verify_round, verify_check),
    "census-audit": Workload(census_inputs, census_round, census_check),
}
