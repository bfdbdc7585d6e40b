"""
Per-layer tracing from outside the program.

Each traced function is replaced, on every dehncover module (or class) that
holds it, by a wrapper that counts calls and times them.  A wrapper's time
is inclusive; its self time is that time minus the part spent in wrapped
functions it called.  Spans are aggregated per function as they close
rather than kept one by one: a generic-scan round makes over a million
traced calls.  A layer's time and self time are the least over the
rounds, as each op's time is in the untraced run; its counts are means per
round.  Cache statistics come from cache_info() on the program's
lru_cache'd functions, read before each round clears them.
"""
from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from dehncover import cli, core, hyperbolic, orbcover, sfscover, surgery

import dehncover

MODULES = (dehncover, core, surgery, orbcover, sfscover, hyperbolic, cli)
IMPORT_MODULES = ("core", "surgery", "orbcover", "sfscover", "hyperbolic", "cli")


def program_caches() -> list:
    """Every lru_cache'd function of the package (private ones included):
    clearing them all gives the cold start of a fresh process."""
    seen = {}
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = obj
    return list(seen.values())


@dataclass
class Stat:
    calls: int = 0  # over all rounds
    time: float = 0.0  # this round
    self_time: float = 0.0  # this round
    best_time: float = float("inf")  # least over finished rounds
    best_self: float = float("inf")
    keys: set = field(default_factory=set)
    distinct: int = 0  # distinct keys summed over finished rounds
    points: int = 0
    returned: int = 0


def _partition_key(cover, base, n):
    return (cover.cone_orders, base.cone_orders, n)


def _count_points(stat: Stat, args, result):
    """Lattice points short_slope_box makes enumerate_short_slopes visit."""
    cusp, k = args
    a, b = hyperbolic.short_slope_box(k, cusp)
    stat.points += (2 * int(a) + 1) * int(b) + 1
    stat.returned += len(result)


# (layer name, owner, attribute, key for distinct_ratio, observer)
TRACED = (
    ("surgery.classify_surgery", surgery, "classify_surgery", None, None),
    ("core.base_orbifold", core.SeifertInvariants, "base_orbifold", None, None),
    ("core.sfs_equivalent", core, "sfs_equivalent", None, None),
    ("orbcover.classify_cover", orbcover, "classify_cover", None, None),
    ("orbcover.partition_systems", orbcover, "partition_systems", _partition_key, None),
    ("orbcover.perm_cover_oracle", orbcover, "perm_cover_oracle", None, None),
    ("orbcover.table_covers", orbcover, "table_covers", None, None),
    ("orbcover.summary_covers", orbcover, "summary_covers", None, None),
    ("orbcover.verify_pair", orbcover, "verify_pair", None, None),
    ("sfscover.decide_cover", sfscover, "decide_cover", None, None),
    ("sfscover.decide_cover_directed", sfscover, "decide_cover_directed", None, None),
    ("sfscover.pullback", sfscover, "pullback", None, None),
    ("sfscover.fiberwise_lift", sfscover, "fiberwise_lift", None, None),
    ("hyperbolic.read_census", hyperbolic, "read_census", None, None),
    ("hyperbolic.enumerate_short_slopes", hyperbolic, "enumerate_short_slopes", None, _count_points),
    ("hyperbolic.audit_knot", hyperbolic, "audit_knot", None, None),
)

# lru_cache'd layers whose hit ratio is reported
CACHED = {"surgery.classify_surgery": surgery.classify_surgery,
          "sfscover.decide_cover_directed": sfscover.decide_cover_directed}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list[float]] = []
        self.enabled = True
        self.rounds = 0
        self.hits = {name: 0 for name in CACHED}
        self.misses = {name: 0 for name in CACHED}
        self.cache_entries = {name: 0 for name in CACHED}
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, key, observe):
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.time += dt
                stat.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if key is not None:
                stat.keys.add(key(*args))
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace each traced function wherever a module or class holds it."""
        for name, owner, attr, key, observe in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, key, observe)
            holders = [owner] + [m for m in MODULES if m is not owner]
            for holder in holders:
                for held, value in list(vars(holder).items()):
                    if value is original:
                        self._installed.append((holder, held, original))
                        setattr(holder, held, wrapper)

    def uninstall(self):
        for holder, held, original in reversed(self._installed):
            setattr(holder, held, original)
        self._installed.clear()

    def end_round(self):
        """Fold this round's cache statistics and distinct keys in; call
        before the round's answers are checked and the caches cleared."""
        self.rounds += 1
        for name, fn in CACHED.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.cache_entries[name] = max(self.cache_entries[name], info.currsize)
        for stat in self.stats.values():
            stat.distinct += len(stat.keys)
            stat.keys.clear()
            stat.best_time = min(stat.best_time, stat.time)
            stat.best_self = min(stat.best_self, stat.self_time)
            stat.time = stat.self_time = 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: counts per round, times of the fastest round."""
        r = max(self.rounds, 1)
        st = self.stats

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in ("surgery.classify_surgery", "core.base_orbifold", "core.sfs_equivalent",
                      "orbcover.classify_cover", "orbcover.partition_systems",
                      "orbcover.perm_cover_oracle", "sfscover.decide_cover_directed",
                      "sfscover.pullback", "sfscover.fiberwise_lift"):
            out[f"{layer}.calls"] = (st[layer].calls / r, "count")
        for layer in ("surgery.classify_surgery", "core.sfs_equivalent", "orbcover.classify_cover",
                      "orbcover.partition_systems", "orbcover.perm_cover_oracle",
                      "sfscover.pullback", "sfscover.fiberwise_lift", "hyperbolic.read_census",
                      "hyperbolic.enumerate_short_slopes"):
            out[f"{layer}.time_s"] = (st[layer].best_time, "s")
        for name in CACHED:
            out[f"{name}.hit_ratio"] = (ratio(self.hits[name], self.hits[name] + self.misses[name]), "ratio")
        ps = st["orbcover.partition_systems"]
        out["orbcover.partition_systems.distinct_ratio"] = (ratio(ps.distinct, ps.calls), "ratio")
        out["orbcover.table_covers.time_s"] = (
            st["orbcover.table_covers"].best_time + st["orbcover.summary_covers"].best_time, "s")
        dcd = st["sfscover.decide_cover_directed"]
        out["sfscover.decide_cover_directed.self_s"] = (dcd.best_self, "s")
        out["sfscover.decide_cover_directed.cache_entries"] = (
            float(self.cache_entries["sfscover.decide_cover_directed"]), "count")
        ess = st["hyperbolic.enumerate_short_slopes"]
        out["hyperbolic.enumerate_short_slopes.points_per_slope"] = (ratio(ess.points, ess.returned), "points/slope")
        out["hyperbolic.audit_knot.self_s"] = (st["hyperbolic.audit_knot"].best_self, "s")
        return out

    def table(self) -> dict:
        """Every traced function: calls per round, times of the fastest round."""
        r = max(self.rounds, 1)
        return {name: {"calls": s.calls / r, "time_s": s.best_time, "self_s": s.best_self}
                for name, s in self.stats.items()}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_self_times(stderr_runs: list[str]) -> dict[str, tuple[float, str]]:
    """Median self time of each dehncover module over `python -X importtime`
    runs, from their stderr."""
    per: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for text in stderr_runs:
        for line in text.splitlines():
            m = _IMPORT_LINE.match(line.strip())
            if m:
                mod = m.group(3).strip()
                short = mod.removeprefix("dehncover.")
                if mod.startswith("dehncover.") and short in per:
                    per[short].append(int(m.group(1)) * 1e-6)
    return {f"import.dehncover.{m}.self_s": (statistics.median(v) if v else 0.0, "s")
            for m, v in per.items()}
