"""Command-line front end.

Declarations are read from a spec file given with -f/--file; standalone
commands (pfull, symdiff-check) need no file.  Every subcommand accepts
--json for a stable machine-readable schema in which exact rationals are
strings "a/b".  Exit codes: 0 success, 1 domain errors (unknown names,
precondition violations) and internal arithmetic failures, 2 parse errors
and a command line that argparse rejects.

Every command is one row of COMMANDS.  Its handler only computes and returns
(shown, extra, lines): ``shown`` fields form the text line and also go into
the JSON, ``extra`` fields go into the JSON only (overriding a shown field of
the same name), and ``lines`` are further text lines.  ``main`` renders both
forms from that one result, and reports a result whose numbers are too long
to print as an error.

``main`` builds the argument parser on its first call and reuses it for the
rest of the process; building it costs more than most commands.  Parsing
leaves no state on it: every call gets a fresh namespace, no option has a
mutable default, ``prog`` is fixed and the help width is read when help is
formatted.  Handlers are bound to their subcommands at that one build, so
replacing a ``cmd_*`` function after the first call has no effect.

Start-up is most of a command's wall time, so a command imports only what it
runs: each handler imports the domain module it calls, ``specparse`` is
imported only by a command that reads a spec file, and ``json`` only under
--json.  The module itself loads no more than ``argparse`` and the value
types of ``orbcore`` and ``curveclass`` that rendering needs.  Value types are
built by ``_value``, so no command loads ``dataclasses`` or the ``inspect``,
``ast`` and ``dis`` modules that it imports.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import curveclass
from .curveclass import Kappa
from .orbcore import TOO_LONG_RESULT, DomainError, Multiplicity, OrbifoldDivisor

if TYPE_CHECKING:
    from .specparse import ParseResult, SpecDocument

Result = tuple[dict, dict, Iterable[str]]


def _parse_spec(file: str | None) -> tuple[Path, ParseResult]:
    if not file:
        raise DomainError("this command needs a spec file; pass -f/--file")
    path = Path(file)
    try:
        source = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    from .specparse import parse
    return path, parse(source)


def _named(doc: SpecDocument, kind: str, name: str):
    table = getattr(doc, kind + "s")
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise DomainError(f"unknown {kind} {name!r} (declared: {known})")
    return table[name]


def cmd_classify(args: argparse.Namespace, doc: SpecDocument) -> Result:
    curve = _named(doc, "curve", args.name)
    shown = {
        "kappa": curveclass.kappa_curve(curve),
        "degree": curveclass.canonical_degree(curve),
        "special": curveclass.is_special_curve(curve),
    }
    return shown, {"name": args.name}, []


def cmd_fano(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import planepairs
    pair = _named(doc, "plane", args.name).pair
    shown = {"degree": planepairs.anticanonical_degree(pair), "fano": planepairs.is_fano(pair)}
    return shown, {"name": args.name}, []


def cmd_familydim(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import planepairs
    report = planepairs.family_dim_report(_named(doc, "plane", args.name).pair, args.degree)
    shown = {
        "parameters": report.parameters,
        "conditions": report.conditions,
        "dimension": report.dimension,
        "identity": report.dimension,
    }
    extra = {"name": args.name, "degree": report.degree, "note": report.note}
    return shown, extra, [f"note: {report.note}"] if report.note else []


def cmd_base(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import fibration
    base = fibration.orbifold_base(_named(doc, "fibration", args.name), args.mode)
    return {"mode": args.mode, "base": base}, {"name": args.name}, []


def cmd_compose(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import fibration
    direct, staged = fibration.compose_base(_named(doc, "twostage", args.name).data)
    shown = {"direct": direct, "staged": staged, "equal": direct == staged}
    return shown, {"name": args.name}, []


def cmd_morphism(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import fibration
    report = fibration.check_orbifold_morphism(_named(doc, "morphism", args.name), args.mode)
    # rendered only with the text output, where main checks number lengths
    lines = (
        "pair " + _line({"y": c.y_label, "x": c.x_label, "t": c.t,
                         "scaled": c.scaled, "required": c.m_y, "ok": c.ok})
        for c in report.checks
    )
    pairs = [
        {"y": c.y_label, "x": c.x_label, "t": c.t,
         "m_x": c.m_x, "m_y": c.m_y, "scaled": c.scaled, "ok": c.ok}
        for c in report.checks
    ]
    return {"mode": report.mode, "ok": report.ok}, {"name": args.name, "pairs": pairs}, lines


def _restriction(args: argparse.Namespace, doc: SpecDocument) -> curveclass.CurveOrbifold:
    from . import curverestrict
    curve = _named(doc, "paramcurve", args.name)
    arrangement = _named(doc, "plane", args.against).divisor_components()
    return curverestrict.restrict(curve, arrangement, args.variant)


def cmd_restrict(args: argparse.Namespace, doc: SpecDocument) -> Result:
    restricted = _restriction(args, doc)
    shown = {
        "variant": args.variant,
        "marks": restricted.marks,
        "degree": curveclass.canonical_degree(restricted),
        "kappa": curveclass.kappa_curve(restricted),
        "rational": curveclass.is_rational_orbifold_curve(restricted),
    }
    return shown, {"name": args.name, "against": args.against, "genus": restricted.genus}, []


def cmd_rational(args: argparse.Namespace, doc: SpecDocument) -> Result:
    rational = curveclass.is_rational_orbifold_curve(_restriction(args, doc))
    shown = {"variant": args.variant, "rational": rational}
    return shown, {"name": args.name, "against": args.against}, []


def cmd_mordell_search(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import mordell
    triple = _named(doc, "mordell", args.name)
    points = [
        {"a": pt.a, "b": pt.b, "c": abs(pt.a - pt.b) if args.sign == "minus" else pt.a + pt.b}
        for pt in mordell.search_points(triple, args.max_a, args.max_b, args.sign)
    ]
    extra = {
        "name": args.name, "p": triple.p, "q": triple.q, "r": triple.r, "sign": args.sign,
        "max_a": args.max_a, "max_b": args.max_b, "points": points,
    }
    return {"count": len(points)}, extra, [_line(pt) for pt in points]


def cmd_mordell_classical(args: argparse.Namespace, doc: SpecDocument) -> Result:
    from . import mordell
    triple = _named(doc, "mordell", args.name)
    witnesses = [
        {"alpha": w.alpha, "beta": w.beta, "gamma": w.gamma}
        for w in mordell.search_classical(triple, args.max, args.max)
    ]
    extra = {
        "name": args.name, "p": triple.p, "q": triple.q, "r": triple.r,
        "max": args.max, "witnesses": witnesses,
    }
    return {"count": len(witnesses)}, extra, [_line(w) for w in witnesses]


def cmd_pfull(args: argparse.Namespace, doc: None) -> Result:
    from . import mordell
    report = mordell.density_report(args.limit, args.p) if args.density else None
    values = report.values if report else mordell.enumerate_p_full(args.limit, args.p)
    shown: dict = {"count": len(values)}
    extra: dict = {"p": args.p, "limit": args.limit, "values": values}
    if report:
        shown.update(ratio=f"{report.ratio:.6f}", slope=f"{report.slope:.6f}")
        extra["checkpoints"] = report.checkpoints
    return shown, extra, []


def _natural(text: str, message: str) -> int:
    """``text`` as a nonnegative integer, else a DomainError with ``message``."""
    if text.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit, or a digit such as '²'
            pass
    raise DomainError(message)


def cmd_symdiff_check(args: argparse.Namespace, doc: None) -> Result:
    from . import symdiff
    mults = [
        _natural(part, f"multiplicities must be comma-separated integers, got {part!r}")
        for part in map(str.strip, args.mults.split(","))
    ]
    report = symdiff.check_positive_floor(args.p, args.q, mults, extra=args.extra)
    shown = {
        "threshold": report.threshold,
        "n_values": report.n_values,
        "checked": report.checked,
        "counterexamples": len(report.counterexamples),
    }
    counterexamples = [{"n": n, "subsets": j.subsets} for n, j in report.counterexamples]
    extra = {"p": args.p, "q": args.q, "mults": mults, "counterexamples": counterexamples}
    return shown, extra, []


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_NAME = _arg("name")
_RESTRICTION = [
    _NAME,
    _arg("--against", required=True, metavar="PLANE"),
    _arg("--variant", choices=("Z", "Q"), default="Z"),
]

# (name, handler, help, arguments); a command with a "name" argument reads
# the spec file and looks that declaration up.
COMMANDS = [
    ("classify", cmd_classify, "kappa, degree and specialness of a curve orbifold", [_NAME]),
    ("fano", cmd_fano, "anticanonical degree and Fano test of a plane pair", [_NAME]),
    ("familydim", cmd_familydim, "expected rational-curve family dimension",
     [_NAME, _arg("--degree", type=int, required=True)]),
    ("base", cmd_base, "orbifold base of a fibration",
     [_NAME, _arg("--mode", choices=("inf", "gcd"), default="inf")]),
    ("compose", cmd_compose, "composition rule for a two-stage fibration", [_NAME]),
    ("morphism", cmd_morphism, "orbifold-morphism conditions for listed pairs",
     [_NAME, _arg("--mode", choices=("inf", "classical"), default="inf")]),
    ("restrict", cmd_restrict, "restrict a plane arrangement to a parametrized curve",
     _RESTRICTION),
    ("rational", cmd_rational, "is the parametrized curve orbifold-rational?", _RESTRICTION),
    ("mordell-search", cmd_mordell_search, "non-classical point search", [
        _NAME,
        _arg("--max-a", type=int, required=True),
        _arg("--max-b", type=int, required=True),
        _arg("--sign", choices=("minus", "plus"), default="minus"),
    ]),
    ("mordell-classical", cmd_mordell_classical, "classical witness search",
     [_NAME, _arg("--max", type=int, required=True)]),
    ("pfull", cmd_pfull, "enumerate p-full integers", [
        _arg("--p", type=int, required=True),
        _arg("--limit", type=int, required=True),
        _arg("--density", action="store_true"),
    ]),
    ("symdiff-check", cmd_symdiff_check, "exhaustive positive-floor verification", [
        _arg("--p", type=int, required=True),
        _arg("--q", type=int, required=True),
        _arg("--mults", required=True, help="comma-separated multiplicities"),
        _arg("--extra", type=int, default=1, help="values of N past the threshold"),
    ]),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbpairs",
        description="exact calculus for geometric orbifold pairs",
    )
    parser.add_argument("-f", "--file", help="spec file with named declarations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a stable JSON object")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


def _line(fields: dict) -> str:
    return " ".join(f"{key}={_text(value)}" for key, value in fields.items())


def _json_value(value):
    if isinstance(value, OrbifoldDivisor):
        return {label: str(mult) for label, mult in value.items()}
    if isinstance(value, (Fraction, Multiplicity, Kappa)):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = None
        if "name" in args:  # the command works on a declaration from the spec file
            path, result = _parse_spec(args.file)
            for diag in result.diagnostics:
                print(f"{path}:{diag}", file=sys.stderr)
            if not result.ok:
                return 2
            doc = result.document
        shown, extra, lines = args.handler(args, doc)
    except (DomainError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            import json
            payload = {"command": args.command, **shown, **extra}
            out = json.dumps(payload, sort_keys=True, default=_json_value)
        else:
            out = "\n".join([_line(shown), *lines])
    except ValueError:  # the interpreter's limit on converting an int to a string
        print(f"error: {TOO_LONG_RESULT}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
