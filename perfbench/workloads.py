"""The four benchmark workloads: seeded inputs, one op, and its oracle.

Each workload is a closed loop with one client.  Its inputs come in rounds:
a round is a fixed list of op shapes (sizes, degrees, bounds) whose content
(coefficients, planted factors, jittered bounds, order) is drawn from the
seed and the round number.  Every round therefore costs about the same on
every seed, which keeps the per-seed spread of the end-to-end metrics small.
Restriction and Mordell rounds never repeat an input, so a cache keyed on
inputs gains nothing there; the golden corpus and the criterion-6 grid are
fixed sets and repeat in every round by definition.  Program modules are
imported in ``load`` and never at module level, so that set-up time can be
measured from a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    kind: str
    args: tuple
    expect: dict = field(default_factory=dict)


class Workload:
    name = ""
    modules: tuple[str, ...] = ()

    def load(self) -> None:
        for mod in self.modules:
            setattr(self, mod.rsplit(".", 1)[1], importlib.import_module(mod))

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:{index}")

    def warmup(self) -> None:
        raise NotImplementedError

    def make_round(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def shape(self, op: Op):
        """A key naming the op's shape when every round runs the same shapes
        and each shape's latency is taken as its best over the rounds, or
        None when every op's latency counts."""
        return None

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def extra_checks(self, seed: int, timed: list[tuple[Op, object]]) -> list[str]:
        """Whole-run checks that are not about a single op."""
        return []


# ---------------------------------------------------------------------------
# cli_corpus


def _spec(name: str) -> str:
    return str(ROOT / "specs" / name)


# The golden CLI corpus: (golden file stem, argv).
CORPUS = [
    ("elliptic6_base_inf", ["-f", _spec("elliptic_surface_base.orb"), "base", "elliptic6", "--mode", "inf"]),
    ("elliptic6_base_gcd", ["-f", _spec("elliptic_surface_base.orb"), "base", "elliptic6", "--mode", "gcd"]),
    ("base6_classify", ["-f", _spec("elliptic_surface_base.orb"), "classify", "base6"]),
    ("otherline_rational", ["-f", _spec("logarithmic_curves.orb"), "rational", "otherline", "--against", "logline"]),
    ("tangentconic_rational", ["-f", _spec("logarithmic_curves.orb"), "rational", "tangentconic", "--against", "logline"]),
    ("secantconic_rational", ["-f", _spec("logarithmic_curves.orb"), "rational", "secantconic", "--against", "logline"]),
    ("cuspidalcubic_rational", ["-f", _spec("logarithmic_curves.orb"), "rational", "cuspidalcubic", "--against", "logline"]),
    ("cubicnontangent_rational", ["-f", _spec("logarithmic_curves.orb"), "rational", "cubicnontangent", "--against", "logline"]),
    ("tangentline_restrict", ["-f", _spec("logarithmic_curves.orb"), "restrict", "tangentline", "--against", "logconic"]),
    ("secantline_restrict", ["-f", _spec("logarithmic_curves.orb"), "restrict", "secantline", "--against", "logconic"]),
    ("node234_restrict", ["-f", _spec("line_arrangements.orb"), "restrict", "node234", "--against", "lines234"]),
    ("node234_restrict_q", ["-f", _spec("line_arrangements.orb"), "restrict", "node234", "--against", "lines234", "--variant", "Q"]),
    ("highnode_rational", ["-f", _spec("line_arrangements.orb"), "rational", "highnode", "--against", "lines2245"]),
    ("lownode_rational", ["-f", _spec("line_arrangements.orb"), "rational", "lownode", "--against", "lines2245"]),
    ("mixednode_rational", ["-f", _spec("line_arrangements.orb"), "rational", "mixednode", "--against", "lines2245"]),
    ("nodeline_rational", ["-f", _spec("line_arrangements.orb"), "rational", "nodeline", "--against", "twologlines"]),
    ("genericline_rational", ["-f", _spec("line_arrangements.orb"), "rational", "genericline", "--against", "twologlines"]),
    ("fano3357", ["-f", _spec("fano_pairs.orb"), "fano", "fano3357"]),
    ("fano23741", ["-f", _spec("fano_pairs.orb"), "fano", "fano23741"]),
    ("notfano3358", ["-f", _spec("fano_pairs.orb"), "fano", "notfano3358"]),
    ("familydim3357_105", ["-f", _spec("fano_pairs.orb"), "familydim", "fano3357", "--degree", "105"]),
    ("familydim3357_210", ["-f", _spec("fano_pairs.orb"), "familydim", "fano3357", "--degree", "210"]),
    ("familydim23741", ["-f", _spec("fano_pairs.orb"), "familydim", "fano23741", "--degree", "1722"]),
    ("pencil12_inf", ["-f", _spec("multiple_fibres.orb"), "base", "pencil12", "--mode", "inf"]),
    ("pencil12_gcd", ["-f", _spec("multiple_fibres.orb"), "base", "pencil12", "--mode", "gcd"]),
    ("chain_compose", ["-f", _spec("multiple_fibres.orb"), "compose", "chain"]),
    ("doublecover_inf", ["-f", _spec("multiple_fibres.orb"), "morphism", "doublecover", "--mode", "inf"]),
    ("doublecover_classical", ["-f", _spec("multiple_fibres.orb"), "morphism", "doublecover", "--mode", "classical"]),
    ("triplecover_inf", ["-f", _spec("multiple_fibres.orb"), "morphism", "triplecover", "--mode", "inf"]),
    ("triplecover_classical", ["-f", _spec("multiple_fibres.orb"), "morphism", "triplecover", "--mode", "classical"]),
    ("gt237_search", ["-f", _spec("mordell_triples.orb"), "mordell-search", "gt237", "--max-a", "100", "--max-b", "100"]),
    ("search273", ["-f", _spec("mordell_triples.orb"), "mordell-search", "search273", "--max-a", "100", "--max-b", "100"]),
    ("classical323", ["-f", _spec("mordell_triples.orb"), "mordell-classical", "classical323", "--max", "10"]),
    ("pfull100", ["pfull", "--p", "2", "--limit", "100"]),
    ("symdiff_2_1_22", ["symdiff-check", "--p", "2", "--q", "1", "--mults", "2,2"]),
]


class CliCorpus(Workload):
    """One op: cli.main(argv) for one golden command, stdout captured.

    A command takes a few milliseconds and each runs once per round, so a
    run holds well over a hundred rounds; the best of a command's runs reads
    the program's speed at the moments another tenant of the host leaves the
    CPU alone, which its median does not."""

    name = "cli_corpus"
    modules = ("orbpairs.cli",)

    def golden(self, stem: str) -> str:
        return (ROOT / "tests" / "golden" / f"{stem}.txt").read_text(encoding="utf-8")

    def warmup(self) -> None:
        self.run(Op("cli", tuple(CORPUS[10][1])))

    def make_round(self, seed: int, index: int) -> list[Op]:
        ops = [Op("cli", tuple(argv), {"golden": stem}) for stem, argv in CORPUS]
        self.rng(seed, index).shuffle(ops)
        return ops

    def run(self, op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(op.args))
        return code, out.getvalue()

    def shape(self, op: Op):
        return op.expect["golden"]

    def check(self, op: Op, result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"{op.expect['golden']}: exit code {code}"
        if stdout != self.golden(op.expect["golden"]):
            return f"{op.expect['golden']}: stdout differs from the golden file"
        return None


# ---------------------------------------------------------------------------
# restrict_highdeg

# Binary forms as ascending s-power coefficient tuples.
_S, _U = (0, 1), (1, 0)
_CONIC = ((0, 0, 1), (0, 1, 0), (1, 0, 0))  # s^2, s*u, u^2
_CUBIC = ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0))  # s^3, s^2*u, u^3

# One round: (family, curve, shape).  Fermat shapes list (n, sign) per
# component; lines shapes list the number of lines per component; dense
# shapes list the form degree per component.
RESTRICT_ROUND = [
    ("fermat", "line", [(24, -1), (36, -1)]),
    ("fermat", "line", [(30, 1), (20, 1)]),
    ("fermat", "line", [(48, -1)]),
    ("fermat", "line", [(40, 1)]),
    ("fermat", "line", [(36, 1), (30, -1)]),
    ("lines", "conic", [10]),
    ("lines", "conic", [6, 6]),
    ("lines", "cubic", [6]),
    ("lines", "cubic", [4, 4]),
    ("dense", "conic", [6]),
    ("dense", "conic", [10]),
    ("dense", "conic", [14]),
    ("dense", "conic", [18]),
    ("dense", "conic", [20]),
]


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _ternary_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            key = (a + d, b + e, c + h)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _pullback(coords, terms: dict):
    """Substitute integer binary forms into a ternary form, returning a
    canonical integer coefficient tuple (the oracle's own arithmetic)."""
    d = len(coords[0]) - 1
    degree = sum(next(iter(terms)))
    out = [Fraction(0)] * (d * degree + 1)
    for (i, j, k), c in terms.items():
        term = oracles.form_mul(
            oracles.form_mul(oracles.form_pow(coords[0], i), oracles.form_pow(coords[1], j)),
            oracles.form_pow(coords[2], k),
        )
        for idx, x in enumerate(term):
            out[idx] += c * x
    return oracles.canonical(out)


def _linear_factor(rng: random.Random):
    """The ratio beta = n/d of a seeded linear factor s + beta*u."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def _planted_conic_target(rng: random.Random):
    """A binary quadratic with its planted factorization."""
    if rng.random() < 0.7:
        b1, b2 = _linear_factor(rng), _linear_factor(rng)
        target = (b1 * b2, b1 + b2, Fraction(1))
        factors: dict = {}
        for beta in (b1, b2):
            key = oracles.canonical((beta, 1))
            factors[key] = factors.get(key, 0) + 1
        return target, factors
    while True:
        a, b, c = rng.randint(1, 5), rng.randint(-9, 9), rng.randint(-9, 9)
        if c and not _is_rational_square(Fraction(b * b - 4 * a * c)):
            target = (Fraction(c), Fraction(b), Fraction(a))
            return target, {oracles.canonical(target): 1}


def _planted_cubic_target(rng: random.Random):
    """A binary cubic with no s*u^2 term (so it lies in the span of
    s^3, s^2*u, u^3) and its planted factorization."""
    if rng.random() < 0.6:
        while True:
            b1, b2 = _linear_factor(rng), _linear_factor(rng)
            if b1 + b2:
                break
        b3 = -b1 * b2 / (b1 + b2)
        roots = (b1, b2, b3)
        target = (b1 * b2 * b3, Fraction(0), b1 + b2 + b3, Fraction(1))
        factors: dict = {}
        for beta in roots:
            key = oracles.canonical((beta, 1))
            factors[key] = factors.get(key, 0) + 1
        return target, factors
    while True:
        beta = rng.choice([-1, 1]) * rng.randint(1, 6)
        gamma = rng.choice([-1, 1]) * rng.randint(1, 9)
        if not _is_rational_square(Fraction(gamma * gamma + 4 * beta * gamma)):
            break
    delta = -beta * gamma
    quad = (Fraction(delta), Fraction(gamma), Fraction(1))
    target = (Fraction(beta * delta), Fraction(0), Fraction(beta + gamma), Fraction(1))
    factors = {oracles.canonical((beta, 1)): 1, oracles.canonical(quad): 1}
    return target, factors


class RestrictHighdeg(Workload):
    """One op: curverestrict.contact_orders(curve, arrangement)."""

    name = "restrict_highdeg"
    modules = ("orbpairs.curverestrict", "orbpairs.polynomials", "orbpairs.orbcore")

    def _h2(self, coeffs):
        return self.polynomials.HomogeneousPoly2(len(coeffs) - 1, tuple(coeffs))

    def _h3(self, degree: int, terms: dict):
        return self.polynomials.HomogeneousPoly3.from_dict(degree, terms)

    def _op(self, coords, forms, expected, mults):
        """coords: three binary forms; forms: (label, degree, terms)."""
        cr = self.curverestrict
        curve = cr.ParamPlaneCurve(*(self._h2(c) for c in coords))
        arrangement = [
            cr.PlaneDivisorComponent(label, self._h3(deg, terms), self.orbcore.Multiplicity(m))
            for (label, deg, terms), m in zip(forms, mults)
        ]
        pullbacks = {label: _pullback(coords, terms) for label, _, terms in forms}
        return Op("contact_orders", (curve, arrangement), {"planted": expected, "pullbacks": pullbacks})

    def warmup(self) -> None:
        op = self._op((_S, _U, (1, 1)), [("F", 4, {(4, 0, 0): 1, (0, 4, 0): -1})], {}, [2])
        self.run(op)

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        ops = [self._make(rng, family, curve, shape) for family, curve, shape in RESTRICT_ROUND]
        rng.shuffle(ops)
        return ops

    def _make(self, rng: random.Random, family: str, curve: str, shape) -> Op:
        mults = [rng.randint(2, 9) for _ in shape]
        labels = [f"F{i}" for i in range(1, len(shape) + 1)]
        if family == "fermat":
            # x_i = s, x_j = u, x_k = a*s + b*u for a seeded permutation
            i, j, k = rng.sample(range(3), 3)
            coords = [None] * 3
            coords[i], coords[j] = _S, _U
            coords[k] = (rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            forms, expected = [], {}
            for label, (n, sign) in zip(labels, shape):
                first, second = (i, j) if rng.random() < 0.5 else (j, i)
                e1 = tuple(n if x == first else 0 for x in range(3))
                e2 = tuple(n if x == second else 0 for x in range(3))
                forms.append((label, n, {e1: 1, e2: sign}))
                expected[label] = oracles.fermat_factors(n, sign)
            return self._op(coords, forms, expected, mults)
        base = _CONIC if curve == "conic" else _CUBIC
        perm = rng.sample(range(3), 3)
        coords = [base[perm[x]] for x in range(3)]
        if family == "lines":
            planted = _planted_conic_target if curve == "conic" else _planted_cubic_target
            # base index -> coefficient index of the target form
            slot = (2, 1, 0) if curve == "conic" else (3, 2, 0)
            forms, expected = [], {}
            for label, count in zip(labels, shape):
                terms: dict = {(0, 0, 0): 1}
                factors: dict = {}
                seen = set()
                while len(seen) < count:
                    target, tf = planted(rng)
                    key = oracles.canonical(target)
                    if key in seen:
                        continue
                    seen.add(key)
                    line = {}
                    for x in range(3):
                        c = target[slot[perm[x]]]
                        if c:
                            line[tuple(1 if y == x else 0 for y in range(3))] = c
                    terms = _ternary_mul(terms, line)
                    for f, e in tf.items():
                        factors[f] = factors.get(f, 0) + e
                forms.append((label, count, terms))
                expected[label] = factors
            return self._op(coords, forms, expected, mults)
        forms = []
        for label, degree in zip(labels, shape):
            terms = {
                (a, b, degree - a - b): rng.choice([-1, 1]) * rng.randint(1, 9)
                for a in range(degree + 1)
                for b in range(degree + 1 - a)
            }
            forms.append((label, degree, terms))
        return self._op(coords, forms, {label: None for label in labels}, mults)

    def run(self, op: Op):
        return self.curverestrict.contact_orders(*op.args)

    def check(self, op: Op, result) -> str | None:
        records = []
        for rec in result:
            coeffs = rec.point.coeffs
            if any(Fraction(c).denominator != 1 for c in coeffs):
                return f"point {rec.point} has non-integral coefficients"
            records.append((tuple(int(c) for c in coeffs), rec.contacts))
        return oracles.check_contacts(records, op.expect["planted"], op.expect["pullbacks"])


# ---------------------------------------------------------------------------
# mordell_search

# One round: (kind, (p, q, r), sign, log10 of the bound).  Bounds are
# stratified over 10^3 .. 10^5 and jittered by +-0.05 decades per seed.  A
# round takes about 0.15 s, so a run holds well over a hundred rounds and each
# shape's latency is its best over them.  Searches at 10^5.3 .. 10^6 take
# 0.3 s each, average over the load of the host's other tenants and spread
# by a fifth from run to run, so they are left out (design.json).
MORDELL_ROUND = [
    ("points", (2, 3, 7), "minus", 3.0),
    ("points", (2, 3, 7), "minus", 4.0),
    ("points", (2, 3, 7), "minus", 5.0),
    ("points", (2, 3, 7), "plus", 3.5),
    ("points", (2, 3, 7), "plus", 4.5),
    ("points", (2, 7, 3), "minus", 3.0),
    ("points", (2, 7, 3), "minus", 3.5),
    ("points", (2, 7, 3), "minus", 4.0),
    ("points", (2, 7, 3), "minus", 4.5),
    ("points", (2, 7, 3), "plus", 4.0),
    ("points", (3, 2, 3), "minus", 3.5),
    ("points", (3, 2, 3), "minus", 4.5),
    ("points", (3, 2, 3), "plus", 3.0),
    ("points", (3, 2, 3), "plus", 4.0),
    ("classical", (3, 2, 3), None, 1.5),
    ("classical", (3, 2, 3), None, 2.0),
    ("classical", (2, 2, 3), None, 1.7),
    ("classical", (2, 3, 7), None, 2.3),
]
BRUTE_POINTS_MAX = 12_000  # completeness is brute-forced below this bound
BRUTE_CLASSICAL_MAX = 60


class MordellSearch(Workload):
    """One op: mordell.search_points or mordell.search_classical."""

    name = "mordell_search"
    modules = ("orbpairs.mordell",)

    def warmup(self) -> None:
        self.run(Op("points", ((2, 3, 7), 100, 100, "minus")))

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        ops = []
        for shape, (kind, triple, sign, level) in enumerate(MORDELL_ROUND):
            if kind == "points":
                max_a = round(10 ** (level + rng.uniform(-0.05, 0.05)))
                max_b = round(10 ** (level + rng.uniform(-0.05, 0.05)))
                ops.append(Op(kind, (triple, max_a, max_b, sign), {"shape": shape}))
            else:
                ops.append(Op(kind, (triple, round(10 ** (level + rng.uniform(-0.05, 0.05)))), {"shape": shape}))
        rng.shuffle(ops)
        return ops

    def shape(self, op: Op):
        return op.expect["shape"]

    def run(self, op: Op):
        m = self.mordell
        if op.kind == "points":
            triple, max_a, max_b, sign = op.args
            return m.search_points(m.OrbifoldP1Triple(*triple), max_a, max_b, sign)
        triple, bound = op.args
        return m.search_classical(m.OrbifoldP1Triple(*triple), bound, bound)

    def check(self, op: Op, result) -> str | None:
        if op.kind == "points":
            (p, q, r), max_a, max_b, sign = op.args
            points = [(pt.a, pt.b) for pt in result]
            err = oracles.check_points(points, p, q, r, max_a, max_b, sign)
            if err is None and max(max_a, max_b) <= BRUTE_POINTS_MAX:
                if points != oracles.brute_points(self._sieve(), p, q, r, max_a, max_b, sign):
                    err = "points differ from the brute-force search"
            return err
        (p, q, r), bound = op.args
        found = [(w.alpha, w.beta, w.gamma) for w in result]
        err = oracles.check_witnesses(found, p, q, r, bound)
        if err is None and bound <= BRUTE_CLASSICAL_MAX:
            if sorted(found, key=lambda w: (w[1], w[0])) != oracles.brute_witnesses(p, q, r, bound):
                err = "witnesses differ from the brute-force search"
        return err

    def _sieve(self) -> oracles.SmallestPrimeSieve:
        if not hasattr(self, "sieve"):
            self.sieve = oracles.SmallestPrimeSieve(2 * BRUTE_POINTS_MAX)
        return self.sieve

    def extra_checks(self, seed: int, timed) -> list[str]:
        """One small query per run must merge from four b-range shards to
        the unsharded output, as in acceptance criterion 8."""
        small = [(op, res) for op, res in timed if op.kind == "points" and max(op.args[1:3]) <= BRUTE_POINTS_MAX]
        if not small:
            return []
        op, full = random.Random(f"shard:{seed}").choice(small)
        triple, max_a, max_b, sign = op.args
        m = self.mordell
        cuts = [0, max_b // 4, max_b // 2, 3 * max_b // 4, max_b]
        shards = [
            m.search_points(m.OrbifoldP1Triple(*triple), max_a, max_b, sign, b_range=(lo + 1, hi))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        if m.merge_point_lists(shards) != full:
            return [f"shard merge differs from the unsharded search {op.args}"]
        return []


# ---------------------------------------------------------------------------
# symdiff_exhaustive

# The relative-exponent call of a round checks a grid (kj_max, 2, m_max)
# picked by the seed among those within 5% of 12000 decompositions.  Grids of
# that size but other q_max cost up to twice as much, so q_max is held at 2.
RELATIVE_GRIDS = [
    (kj, 2, m)
    for kj in range(4, 25)
    for m in range(2, 10)
    if abs(oracles.decomposition_count(kj, 2, m) - 12000) <= 0.05 * 12000
]


class SymdiffExhaustive(Workload):
    """One op: symdiff.check_positive_floor on the criterion-6 grid, or
    symdiff.check_relative_exponent_bounds on a seeded small grid.

    A positive-floor call's threshold and multi-index count depend on mults
    only as a multiset, so a round runs the grid's 105 calls with
    non-decreasing mults rather than all 426 orderings, plus one
    relative-exponent grid.  A run then holds dozens of rounds, and each op
    shape's latency is its best over them: the calls take about a
    millisecond, and their median moves by half with the load of the host's
    other tenants while their best does not."""

    name = "symdiff_exhaustive"
    modules = ("orbpairs.symdiff",)

    def warmup(self) -> None:
        self.run(Op("positive_floor", (2, 1, (2, 2))))

    def make_round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        ops = [
            Op("positive_floor", (p, q, mults))
            for p in range(1, 5)
            for q in range(1, p + 1)
            for mults in combinations_with_replacement((2, 3, 4), p)
        ]
        ops.append(Op("relative_bounds", rng.choice(RELATIVE_GRIDS)))
        rng.shuffle(ops)
        return ops

    def shape(self, op: Op):
        return op.args if op.kind == "positive_floor" else op.kind

    def run(self, op: Op):
        if op.kind == "positive_floor":
            p, q, mults = op.args
            return self.symdiff.check_positive_floor(p, q, list(mults), extra=2)
        return self.symdiff.check_relative_exponent_bounds(*op.args)

    def check(self, op: Op, result) -> str | None:
        if not result.ok:
            return f"{op.kind}{op.args}: report is not ok"
        if op.kind == "positive_floor":
            expected = oracles.multi_index_count(*op.args, extra=2)
        else:
            expected = oracles.decomposition_count(*op.args)
        if result.checked != expected:
            return f"{op.kind}{op.args}: checked {result.checked} != closed form {expected}"
        return None


WORKLOADS = {
    w.name: w for w in (CliCorpus, RestrictHighdeg, MordellSearch, SymdiffExhaustive)
}
