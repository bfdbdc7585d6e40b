"""
Command-line front door.

Subcommands: classify, invariants, cover, orb-covers, verify-tables,
realize, short-slopes, audit.  Exit codes: 0 success/verified, 1 invalid
input, 2 all records failed, 3 enumeration budget exceeded, 141 output
closed early by its reader.  The hyperbolic audit is imported by the two
commands that read a census, so the others do not load it.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .core import (
    LensRegimeError,
    Orbifold2,
    Slope,
    TorusKnot,
    _check_tolerance,
    euler_number,
    h1_order,
    parse_lens,
    parse_seifert,
)
from .surgery import LENS, SFS, classify_surgery, find_surgery_slopes
from .orbcover import (
    _NEG_SPORADIC,
    ORACLE_BUDGET,
    BudgetExceededError,
    _cone_divisors,
    _covers_by_degree,
    perm_cover_oracle,
    table_covers,
    verify_pair,
)
from .sfscover import decide_pair


@dataclass(frozen=True)
class Config:
    """Runtime knobs shared by the commands."""

    oracle_degree_budget: int = ORACLE_BUDGET
    volume_tolerance: float = 1e-4
    output_format: str = "text"

    def __post_init__(self):
        if self.oracle_degree_budget < 1:
            raise ValueError("--budget must be >= 1")
        _check_tolerance(self.volume_tolerance)  # the audit's own rule, for every command
        if self.output_format not in ("text", "tsv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


# global flag (argparse dest) -> the Config field it sets
GLOBAL_FLAGS = {
    "budget": "oracle_degree_budget",
    "tolerance": "volume_tolerance",
    "format": "output_format",
}


# the sporadic high-degree rows checked by verify-tables in addition to the
# general scan: (cover orders, base orders, degree)
TARGETED_ROWS = _NEG_SPORADIC

# the |p| and q bounds of the directed slope scans over one torus knot
SLOPE_SCAN_BOUNDS = (60, 8)

# short-slopes lists every slope of normalized length <= R, about 3 R^2 / pi
# of them per record whatever the cusp shape (an area-1 lattice); a bound
# past this many is refused rather than left to run for minutes
MAX_SHORT_SLOPES = 10**6

# orb-covers --table over a chi = 0 base lists a quadratic-form family of
# degrees, reading the table once per degree (about 70 us each, 7 s at the
# limit); a --max-degree past this is refused rather than left to run
MAX_FAMILY_DEGREE = 10**5

# orb-covers finds the divisors of each cone order by trial division up to
# its square root (about 0.06 s at the limit, 0.6 s at 10^14); a larger
# order is refused rather than left to run
MAX_CONE_ORDER = 10**12

# orb-covers --table tries every multiset of at most three of the base's
# cone-order divisors > 1, about D^3 / 6 of them for D divisors (about 1 s for
# the 169 of 2,3,10^12); a base with more is refused rather than left to run
MAX_BASE_DIVISORS = 200


def _fmt_orders(orders) -> str:
    return "(%s)" % ",".join(str(v) for v in orders)


def _classification_text(cl) -> str:
    if cl.kind == SFS:
        return f"SFS {cl.base_orbifold()} {cl.invariants}"
    if cl.kind == LENS:
        return str(cl.lens)
    (r, s), (s2, r2) = cl.summands
    return f"L({r},{s}) # L({s2},{r2})"


def cmd_classify(args) -> int:
    cl = classify_surgery(TorusKnot(args.r, args.s), Slope(args.p, args.q))
    print(_classification_text(cl))
    return 0


def cmd_invariants(args) -> int:
    K = TorusKnot(args.r, args.s)
    slope = Slope(args.p, args.q)
    cl = classify_surgery(K, slope)
    print(_classification_text(cl))
    if cl.kind == SFS:
        M = cl.invariants
        print(f"base: {M.base_orbifold()}")
        print(f"h1: {h1_order(M)}")
        print(f"euler: {euler_number(M)}")
    elif cl.kind == LENS:
        print(f"h1: {cl.lens.p}")
    return 0


def _fmt_partitions(sys) -> str:
    # unbranched parts v as v×count (v for one) before the branched parts
    cols = []
    for v, c, parts in zip(sys.base_orders, sys.unbranched, sys.partitions):
        unbranched = [f"{v}×{c}" if c > 1 else str(v)] if c else []
        cols.append("+".join(unbranched + [str(k) for k in parts]))
    return f"base S2{_fmt_orders(sys.base_orders)} degree {sys.degree}: [" + " | ".join(cols) + "]"


_REASON_TEXT = {
    "reducibility": "reducibility",
    "chi-mismatch": "orbifold characteristic mismatch",
    "no-orbifold-cover": "no orbifold cover",
    "h1-divisibility": "H1 divisibility",
    "gcd-condition": "gcd condition",
    "lens-divisibility": "lens divisibility",
    "realization-failure": "realization failure",
    "rank": "rank obstruction",
}


def cmd_cover(args) -> int:
    K = TorusKnot(args.r, args.s)
    a, b = Slope(args.p, args.q), Slope(args.p2, args.q2)
    # reverse is None only when forward covers; a NO names both obstructions
    forward, reverse = decide_pair(K, a, b)
    dec = forward if reverse is None else reverse
    if dec.covers:
        cert = dec.certificate
        print(
            f"COVERS degree {cert.total_degree} "
            f"(fiberwise {cert.fiberwise_degree} × orbifold {cert.orbifold_degree})"
        )
        print(f"  cover: {cert.cover_slope}")
        print(f"  base: {cert.base_slope}")
        if cert.intermediate is not None and cert.orbifold_degree > 1:
            print(f"  intermediate: {cert.intermediate}")
        if cert.partition_system is not None and cert.orbifold_degree > 1:
            print(f"  partitions: {_fmt_partitions(cert.partition_system)}")
        return 0
    reasons = "; ".join(
        f"{x} → {y}: {_REASON_TEXT.get(d.reason, d.reason or 'no cover')}"
        for x, y, d in ((a, b, forward), (b, a, reverse))
    )
    print(f"NO ({reasons})")
    return 0


def _parse_base(text: str) -> Orbifold2:
    try:
        orders = tuple(int(v) for v in text.split(",") if v.strip())
        if max(orders, default=0) > MAX_CONE_ORDER:
            raise ValueError(f"cone order {max(orders):,} is past the limit of {MAX_CONE_ORDER:,}")
        cone = sorted(v for v in orders if v > 1)
        if len(cone) <= 3:
            base = Orbifold2(orders)
            count = len(_cone_divisors(base.cone_orders))
            if count > MAX_BASE_DIVISORS:
                raise ValueError(f"the cone orders have {count:,} divisors > 1, past the limit of {MAX_BASE_DIVISORS:,}")
            return base
    except ValueError as exc:
        raise ValueError(f"bad --base {text!r}: {exc}")
    # counted before any work per order (divisors, the lcm of chi), in the
    # words Orbifold2.padded refuses the base with
    raise ValueError(f"orbifold S2({','.join(map(str, cone))}) has more than 3 cone points")


def cmd_orb_covers(args) -> int:
    base = _parse_base(args.base)
    if args.max_degree < 1:
        raise ValueError("--max-degree must be >= 1")
    use_oracle = args.source in ("oracle", "both")
    use_table = args.source in ("table", "both")
    budget = args.cfg.oracle_degree_budget
    degrees = range(1, args.max_degree + 1)
    if use_oracle:
        if args.max_degree > budget:  # refused before the walk prints a row
            raise BudgetExceededError(budget)
    elif base.chi[0]:
        # chi fixes each cover's degree: walk only the degrees with table rows
        degrees = sorted(n for n in _covers_by_degree(base.cone_orders) if n <= args.max_degree)
    elif args.max_degree > MAX_FAMILY_DEGREE:
        raise ValueError(f"--max-degree {args.max_degree:,} over {base} (chi = 0) would list its "
                         f"covers degree by degree; the limit is {MAX_FAMILY_DEGREE:,}")
    for n in degrees:
        oracle = set(perm_cover_oracle(base, n, budget)) if use_oracle else set()
        table = table_covers(base, n) if use_table else set()
        for cov in sorted(oracle | table):
            src = "table" if cov not in oracle else "both" if cov in table else "oracle"
            print(f"{_fmt_orders(cov)}\t{n}\t{src}")
    return 0


def _scan_bases(max_order: int = 9):
    out = set()
    for a in range(1, max_order + 1):
        for b in range(a, max_order + 1):
            for c in range(b, max_order + 1):
                out.add(Orbifold2((a, b, c)).cone_orders)
    return [Orbifold2(o) for o in sorted(out)]


def cmd_verify_tables(args) -> int:
    if args.max_degree < 1:
        raise ValueError("max degree must be >= 1")
    # at least the degree of every targeted row, so that each is checked
    budget = max(args.cfg.oracle_degree_budget, *(n for _c, _b, n in TARGETED_ROWS))
    if args.max_degree > budget:  # refused before the scan prints a row
        raise BudgetExceededError(budget)
    seen = {}

    def check(base: Orbifold2, n: int):
        key = (base.cone_orders, n)
        if key in seen:
            return seen[key]
        rep = verify_pair(base, n, budget=budget)
        seen[key] = rep
        if not rep.clean:
            print(
                f"DIFF\tbase={_fmt_orders(rep.base)}\tn={n}\t"
                f"oracle-only={[_fmt_orders(o) for o in rep.oracle_only]}\t"
                f"table-only={[_fmt_orders(o) for o in rep.table_only]}"
            )
        return rep

    targeted_fail = 0
    for base in _scan_bases(9):
        for n in range(1, min(args.max_degree, 9) + 1):
            check(base, n)
    for orders in sorted({b for _c, b, _n in TARGETED_ROWS}):
        for n in range(10, args.max_degree + 1):
            check(Orbifold2(orders), n)
    for cov, orders, n in TARGETED_ROWS:
        rep = check(Orbifold2(orders), n)
        ok = cov in table_covers(Orbifold2(orders), n) and cov not in rep.table_only
        if not ok:
            targeted_fail += 1
        print(f"TARGETED\t{_fmt_orders(cov)} -> {_fmt_orders(orders)} @ {n}\t"
              f"{'OK' if ok else 'MISSING'}")
    diffs = sum(not rep.clean for rep in seen.values())
    documented = {(cov, rep.base, rep.degree) for rep in seen.values() for cov in rep.documented}
    for cov, borders, n in sorted(documented):
        print(
            f"DOCUMENTED\t{_fmt_orders(cov)} -> {_fmt_orders(borders)} @ {n}\t"
            "(complete-table row absent from the abbreviated summary variant)"
        )
    if diffs == 0 and targeted_fail == 0:
        print(f"PASS verified {len(seen)} (base, degree) pairs, 0 diffs, "
              f"{len(documented)} documented rows")
        return 0
    print(f"FAIL {diffs} diffs, {targeted_fail} targeted rows missing")
    return 1


def cmd_realize(args) -> int:
    K = TorusKnot(args.r, args.s)
    text = args.target.strip()
    if text.startswith("{"):
        target = parse_seifert(text)
    elif text[:2].upper() == "L(":
        target = parse_lens(text)
    else:
        raise ValueError(f"target must be Seifert invariants {{b;(a,b),...}} or L(p,q), got {text!r}")
    for slope in find_surgery_slopes(K, target):
        print(slope)
    return 0


def _read_records(path: str) -> list:
    """The valid census records at path; warns per bad line, errors if none."""
    from .hyperbolic import read_census

    records, errors = read_census(path)
    for err in errors:
        print(f"warning: {err}", file=sys.stderr)
    if not records:
        print("error: no valid records", file=sys.stderr)
    return records


def cmd_short_slopes(args) -> int:
    from .hyperbolic import enumerate_short_slopes, normalized_cutoff

    records = _read_records(args.census)
    if not records:
        return 2
    cutoff = normalized_cutoff(args.k)
    expected = 3 * cutoff**2 / math.pi
    if expected > MAX_SHORT_SLOPES:
        raise ValueError(f"--k {args.k:g} would list about {expected:,.0f} slopes per record, "
                         f"more than the limit of {MAX_SHORT_SLOPES:,}")
    for rec in records:
        short = enumerate_short_slopes(rec.cusp, cutoff)
        if args.cfg.output_format == "tsv":
            print(f"{rec.name}\t{len(short)}")
        else:
            print(f"{rec.name}\t{len(short)} slopes of normalized length <= {cutoff:.6f}")
            for slope, length in short:
                print(f"  {slope}\t{length:.6f}")
    return 0


def cmd_audit(args) -> int:
    from .hyperbolic import DegreeLimitError, audit_knot

    records = _read_records(args.census)
    if not records:
        return 2
    reports = []
    for rec in sorted(records, key=lambda r: r.name):
        try:
            reports.append(audit_knot(rec, tol=args.cfg.volume_tolerance))
        except DegreeLimitError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    if not reports:
        print("error: no record could be audited", file=sys.stderr)
        return 2
    if args.cfg.output_format == "tsv":
        print("knot\tcover_slope\tbase_slope\tcandidate_degrees\tstatus\treason")
        for rep in reports:
            for row in rep.rows:
                degs = ",".join(str(d) for d in row.degrees)
                print(f"{row.knot}\t{row.cover_slope}\t{row.base_slope}\t{degs}\t{row.status}\t{row.reason}")
    else:
        for rep in reports:
            if rep.verified:
                note = f" ({len(rep.exceptional)} exceptional fillings deferred)" if rep.exceptional else ""
                print(f"{rep.knot}\tverified{note}")
            else:
                bad = rep.survivors + tuple(r for r in rep.rows if r.status == "unmeasured")
                print(f"{rep.knot}\tNOT VERIFIED ({len(bad)} open rows)")
                for row in bad:
                    degs = ",".join(str(d) for d in row.degrees)
                    print(f"  {row.cover_slope} -> {row.base_slope}\tdegrees [{degs}]\t{row.status}: {row.reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand
    # (after wins when both are given).  The actions are shared with every
    # subparser, so their defaults must stay SUPPRESS: a real default would be
    # copied over the value given before the subcommand.  Flags that were not
    # given fall back to the Config field defaults in main().
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help="degree budget of the permutation oracle in orb-covers and "
                             f"verify-tables (default {Config.oracle_degree_budget})")
    common.add_argument("--format", choices=("text", "tsv"), default=argparse.SUPPRESS,
                        help=f"output format for report commands (default {Config.output_format})")
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                        help=f"volume comparison tolerance for audits (default {Config.volume_tolerance:g})")

    parser = argparse.ArgumentParser(
        prog="dehncover",
        parents=[common],
        description=(
            "Decide covering relations between Dehn surgeries on torus knots "
            "and audit ingested hyperbolic surgery data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("classify", help="classify p/q surgery on T(r,s)", parents=[common])
    for name in ("r", "s", "p", "q"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="Seifert data of p/q surgery on T(r,s)", parents=[common])
    for name in ("r", "s", "p", "q"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("cover", help="decide a covering relation between two surgeries", parents=[common])
    for name in ("r", "s", "p", "q", "p2", "q2"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("orb-covers", help="covers of a base 2-orbifold by degree", parents=[common])
    p.add_argument("--base", required=True, help="comma-separated cone orders, e.g. 2,3,7")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--oracle", dest="source", action="store_const", const="oracle")
    p.add_argument("--table", dest="source", action="store_const", const="table")
    p.add_argument("--both", dest="source", action="store_const", const="both")
    p.set_defaults(func=cmd_orb_covers, source="both")

    p = sub.add_parser("verify-tables", help="compare the oracle against the classification tables", parents=[common])
    p.add_argument("max_degree", type=int)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("realize", help="find slopes realizing a target manifold on T(r,s)", parents=[common])
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("target", help='Seifert invariants "{b;(a1,b1),...}" or lens space "L(p,q)"')
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("short-slopes", help="enumerate short slopes per census record", parents=[common])
    p.add_argument("census")
    p.add_argument("--k", type=float, default=None,
                   help="maximal-cusp length bound (default: the covered-surgery bound 10.328942...)")
    p.set_defaults(func=cmd_short_slopes)

    p = sub.add_parser("audit", help="audit census records for potential covered surgeries", parents=[common])
    p.add_argument("census")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.cfg = Config(**{
            field: getattr(args, flag)
            for flag, field in GLOBAL_FLAGS.items() if hasattr(args, flag)
        })
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): end quietly, with
        # stdout pointed at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a writer killed by the signal
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LensRegimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
