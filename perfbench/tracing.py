"""Span tracing of the program's layers from outside the program.

During a traced pass the public functions each layer calls through are
replaced by timing wrappers: every module binding of the function object
(``from x import f`` copies included) or the class attribute of a method.
A span records its name, start, end, parent span and op id; a layer's self
time is its span's duration minus the time its child spans cover.

Functions called hundreds of thousands of times per op (``is_p_full``,
``is_perfect_power``, ``as_multiplicity``) are hot leaves: their wrapper only
counts calls and adds its time to the enclosing span's child time, because
one span each would dominate both the run and its memory.  Counts that come
from returned values (records, tokens, modular factors, multi-indices) are
taken from the results, never by wrapping inner loops.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

# (span name, module, attribute, hot leaf, counter fed from the result)
TARGETS = [
    ("cli.main", "orbpairs.cli", "main", False, None),
    ("cli.build_parser", "orbpairs.cli", "build_parser", False, None),
    ("specparse.parse", "orbpairs.specparse", "parse", False, None),
    ("specparse.tokenize", "orbpairs.specparse", "tokenize", False,
     lambda c, r: c.update({"specparse.tokens": len(r[0])})),
    ("polynomials.poly2_gcd", "orbpairs.polynomials", "poly2_gcd", False, None),
    ("curverestrict.contact_orders", "orbpairs.curverestrict", "contact_orders", False,
     lambda c, r: c.update({"curverestrict.records": len(r)})),
    ("polynomials.substitute", "orbpairs.polynomials", "HomogeneousPoly3.substitute", False,
     lambda c, r: c.update({"polynomials.pullback_degree": r.degree})),
    ("polynomials.factor_rational", "orbpairs.polynomials", "factor_rational", False,
     lambda c, r: c.update({"polynomials.irreducible_factors": len(r[1])})),
    ("polynomials.squarefree", "orbpairs.polynomials", "squarefree_decomposition", False, None),
    ("polynomials.berlekamp", "orbpairs.polynomials", "gf_berlekamp", False,
     lambda c, r: c.update({"polynomials.berlekamp.modular_factors": len(r)})),
    ("mordell.search_points", "orbpairs.mordell", "search_points", False,
     lambda c, r: c.update({"mordell.points_found": len(r)})),
    ("mordell.enumerate_p_full", "orbpairs.mordell", "enumerate_p_full", False,
     lambda c, r: c.update({"mordell.enumerate_p_full.values": len(r)})),
    ("mordell.is_p_full", "orbpairs.mordell", "is_p_full", True, None),
    ("mordell.search_classical", "orbpairs.mordell", "search_classical", False,
     lambda c, r: c.update({"mordell.witnesses": len(r)})),
    ("mordell.is_perfect_power", "orbpairs.mordell", "is_perfect_power", True, None),
    ("symdiff.check_positive_floor", "orbpairs.symdiff", "check_positive_floor", False,
     lambda c, r: c.update({"symdiff.multi_indices_checked": r.checked})),
    ("symdiff.check_relative_exponent_bounds", "orbpairs.symdiff",
     "check_relative_exponent_bounds", False,
     lambda c, r: c.update({"symdiff.decompositions_checked": r.checked})),
    ("orbcore.as_multiplicity", "orbpairs.orbcore", "as_multiplicity", True, None),
    ("orbcore.mult_min", "orbpairs.orbcore", "mult_min", False, None),
    ("orbcore.mult_lcm", "orbpairs.orbcore", "mult_lcm", False, None),
    ("orbcore.mult_gcd", "orbpairs.orbcore", "mult_gcd", False, None),
] + [
    (f"{mod}.{fn}", f"orbpairs.{mod}", fn, False, None)
    for mod, fns in (
        ("curveclass", ("canonical_degree", "kappa_curve", "is_special_curve",
                        "is_rational_orbifold_curve", "spherical_profile")),
        ("planepairs", ("anticanonical_degree", "is_fano", "expected_family_dim",
                        "adjunction_identity_check", "family_dim_report")),
        ("fibration", ("base_multiplicity", "orbifold_base", "compose_base",
                       "check_orbifold_morphism")),
    )
    for fn in fns
]


class Tracer:
    """Collects the spans, hot-leaf aggregates and counters of one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op id, self s)
        self.stack: list[list] = []  # [id, name, start, child seconds]
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: Counter = Counter()
        self.restore: list[tuple] = []
        self.missing: list[str] = []
        self.op_id = -1

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result):
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            frame = [len(spans) + len(stack), name, perf_counter(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                spans.append((frame[0], name, frame[2], end, parent, self.op_id, duration - frame[3]))
                if stack:
                    stack[-1][3] += duration
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        agg, stack = self.leaves[name], self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                agg[0] += 1
                agg[1] += duration
                if stack:
                    stack[-1][3] += duration

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "orbpairs" or n.startswith("orbpairs.")]
        for name, modname, attr, hot, on_result in TARGETS:
            module = sys.modules.get(modname)
            if module is None:  # the workload does not load this layer
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:  # renamed or removed: reported, not measured
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._leaf(name, original) if hot else self._span(name, original, on_result)
            if owner_name:
                self.restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.restore):
            setattr(owner, key, original)
        self.restore.clear()

    # -- op boundary ------------------------------------------------------

    def op(self, op_id: int, run):
        """Run one op under a root span "op" that carries its id."""
        self.op_id = op_id
        return self._span("op", run, None)()

    # -- metrics ----------------------------------------------------------

    def summary(self) -> dict:
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        for name, (n, seconds) in self.leaves.items():
            calls[name] += n
            self_s[name] += seconds
        return {"calls": calls, "self_s": self_s, "counters": self.counters}

    def dump(self, path: Path, pass_index: int) -> None:
        with path.open("a", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op_id, own in self.spans:
                fh.write(json.dumps({
                    "pass": pass_index, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "op": op_id, "self_s": own,
                }) + "\n")
            for name, (n, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"pass": pass_index, "leaf": name, "calls": n, "s": seconds}) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _group(summary: dict, prefix: str, what: str) -> float:
    return sum(v for k, v in summary[what].items() if k.startswith(prefix))


# per-layer metric -> (unit, value from one pass summary)
PER_LAYER = {
    "cli.main.calls": ("count", lambda s: s["calls"]["cli.main"]),
    "cli.main.self_s": ("s", lambda s: s["self_s"]["cli.main"]),
    "cli.build_parser.s": ("s", lambda s: s["self_s"]["cli.build_parser"]),
    "specparse.parse.calls": ("count", lambda s: s["calls"]["specparse.parse"]),
    "specparse.parse.self_s": ("s", lambda s: s["self_s"]["specparse.parse"]),
    "specparse.tokenize.s": ("s", lambda s: s["self_s"]["specparse.tokenize"]),
    "specparse.tokens": ("count", lambda s: s["counters"]["specparse.tokens"]),
    "polynomials.poly2_gcd.calls": ("count", lambda s: s["calls"]["polynomials.poly2_gcd"]),
    "polynomials.poly2_gcd.s": ("s", lambda s: s["self_s"]["polynomials.poly2_gcd"]),
    "curverestrict.contact_orders.calls": ("count", lambda s: s["calls"]["curverestrict.contact_orders"]),
    "curverestrict.contact_orders.self_s": ("s", lambda s: s["self_s"]["curverestrict.contact_orders"]),
    "curverestrict.records": ("count", lambda s: s["counters"]["curverestrict.records"]),
    "polynomials.substitute.s": ("s", lambda s: s["self_s"]["polynomials.substitute"]),
    "polynomials.pullback_degree": ("count", lambda s: s["counters"]["polynomials.pullback_degree"]),
    "polynomials.squarefree.s": ("s", lambda s: s["self_s"]["polynomials.squarefree"]),
    "polynomials.berlekamp.s": ("s", lambda s: s["self_s"]["polynomials.berlekamp"]),
    "polynomials.berlekamp.modular_factors": (
        "count", lambda s: s["counters"]["polynomials.berlekamp.modular_factors"]),
    "polynomials.factor_rational.calls": ("count", lambda s: s["calls"]["polynomials.factor_rational"]),
    "polynomials.factor_rational.self_s": ("s", lambda s: s["self_s"]["polynomials.factor_rational"]),
    "polynomials.irreducible_factors": ("count", lambda s: s["counters"]["polynomials.irreducible_factors"]),
    "polynomials.recombination_yield": ("1", lambda s: _ratio(
        s["counters"]["polynomials.irreducible_factors"],
        s["counters"]["polynomials.berlekamp.modular_factors"])),
    "mordell.search_points.calls": ("count", lambda s: s["calls"]["mordell.search_points"]),
    "mordell.search_points.self_s": ("s", lambda s: s["self_s"]["mordell.search_points"]),
    "mordell.enumerate_p_full.s": ("s", lambda s: s["self_s"]["mordell.enumerate_p_full"]),
    "mordell.enumerate_p_full.values": ("count", lambda s: s["counters"]["mordell.enumerate_p_full.values"]),
    "mordell.is_p_full.calls": ("count", lambda s: s["calls"]["mordell.is_p_full"]),
    "mordell.is_p_full.s": ("s", lambda s: s["self_s"]["mordell.is_p_full"]),
    "mordell.points_found": ("count", lambda s: s["counters"]["mordell.points_found"]),
    "mordell.hit_ratio": ("1", lambda s: _ratio(
        s["counters"]["mordell.points_found"], s["calls"]["mordell.is_p_full"])),
    "mordell.search_classical.calls": ("count", lambda s: s["calls"]["mordell.search_classical"]),
    "mordell.search_classical.self_s": ("s", lambda s: s["self_s"]["mordell.search_classical"]),
    "mordell.is_perfect_power.calls": ("count", lambda s: s["calls"]["mordell.is_perfect_power"]),
    "mordell.witnesses": ("count", lambda s: s["counters"]["mordell.witnesses"]),
    "symdiff.check_positive_floor.calls": ("count", lambda s: s["calls"]["symdiff.check_positive_floor"]),
    "symdiff.check_positive_floor.s": ("s", lambda s: s["self_s"]["symdiff.check_positive_floor"]),
    "symdiff.multi_indices_checked": ("count", lambda s: s["counters"]["symdiff.multi_indices_checked"]),
    "symdiff.check_relative_exponent_bounds.calls": (
        "count", lambda s: s["calls"]["symdiff.check_relative_exponent_bounds"]),
    "symdiff.check_relative_exponent_bounds.s": (
        "s", lambda s: s["self_s"]["symdiff.check_relative_exponent_bounds"]),
    "symdiff.decompositions_checked": ("count", lambda s: s["counters"]["symdiff.decompositions_checked"]),
    "orbcore.as_multiplicity.calls": ("count", lambda s: s["calls"]["orbcore.as_multiplicity"]),
    "orbcore.mult_lcm.calls": ("count", lambda s: s["calls"]["orbcore.mult_lcm"]),
    "orbcore.lattice.s": ("s", lambda s: sum(
        s["self_s"][f"orbcore.{n}"] for n in ("mult_min", "mult_lcm", "mult_gcd"))),
    "curveclass.calls": ("count", lambda s: _group(s, "curveclass.", "calls")),
    "curveclass.s": ("s", lambda s: _group(s, "curveclass.", "self_s")),
    "planepairs.s": ("s", lambda s: _group(s, "planepairs.", "self_s")),
    "fibration.s": ("s", lambda s: _group(s, "fibration.", "self_s")),
}


def layer_metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Counters from the first traced pass (they repeat exactly); times as
    the median over the traced passes."""
    out = {}
    for name, (unit, get) in PER_LAYER.items():
        if unit == "s":
            out[name] = (median(get(s) for s in summaries), unit)
        else:
            out[name] = (get(summaries[0]), unit)
    return out
