"""Parser and pretty-printer for the orbifold spec DSL.

The language is line-oriented and keyword-driven: seven declaration kinds
(curve, plane, fibration, twostage, morphism, paramcurve, mordell), each a
named brace block of semicolon-terminated statements.  Rationals are written
``a/b`` or as integers and ``inf`` is the sole infinity literal; polynomials
use integer or rational coefficients, the variables of their context
(``s, u`` for parametrizations, ``x0, x1, x2`` for plane forms), and
``+ - * ^`` with parentheses.

Parsing is recursive descent with precise source spans.  Errors are
collected as diagnostics and never abort the parse: a bad statement skips to
the next semicolon, a structurally broken declaration skips to the next
top-level keyword.  Cross-references (the ``upper`` fibration of a twostage)
resolve after the whole document is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .curveclass import CurveOrbifold
from .curverestrict import ParamPlaneCurve, PlaneDivisorComponent
from .fibration import FibrationData, MorphismData, MorphismPair, TwoStageData
from .mordell import OrbifoldP1Triple
from .orbcore import DomainError, Multiplicity, OrbifoldDivisor
from .planepairs import PlaneArrangementPair
from .polynomials import HomogeneousPoly2, HomogeneousPoly3, render_poly2, render_poly3

# Parenthesised polynomial sub-expressions nest at most this deep; each level
# costs a few Python frames, so deeper input is reported as a parse error
# instead of exhausting the interpreter's recursion limit.
_MAX_PAREN_DEPTH = 100


# ---------------------------------------------------------------------------
# tokens and diagnostics


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


_SYMBOLS = {
    "{": "LBRACE",
    "}": "RBRACE",
    ";": "SEMI",
    "=": "EQUALS",
    "/": "SLASH",
    "*": "STAR",
    "^": "CARET",
    "+": "PLUS",
    "-": "MINUS",
    "(": "LPAREN",
    ")": "RPAREN",
}

_DECL_KEYWORDS = (
    "curve",
    "plane",
    "fibration",
    "twostage",
    "morphism",
    "paramcurve",
    "mordell",
)


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and source[i + 1] == ">":
            tokens.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        diagnostics.append(Diagnostic("error", line, col, f"unexpected character {ch!r}"))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# document


@dataclass
class PlaneDecl:
    """A plane declaration: the numeric pair plus the optional defining
    forms needed for contact-order computations."""

    pair: PlaneArrangementPair
    forms: dict[str, HomogeneousPoly3] = field(default_factory=dict)

    def divisor_components(self) -> list[PlaneDivisorComponent]:
        out = []
        for comp in self.pair.components:
            form = self.forms.get(comp.label)
            if form is None:
                raise DomainError(
                    f"component {comp.label!r} has no defining form; "
                    f"add 'form <polynomial>' to use it for restriction"
                )
            out.append(PlaneDivisorComponent(comp.label, form, comp.multiplicity))
        return out


@dataclass
class TwoStageDecl:
    upper_name: str
    data: TwoStageData


@dataclass
class SpecDocument:
    curves: dict[str, CurveOrbifold] = field(default_factory=dict)
    planes: dict[str, PlaneDecl] = field(default_factory=dict)
    fibrations: dict[str, FibrationData] = field(default_factory=dict)
    twostages: dict[str, TwoStageDecl] = field(default_factory=dict)
    morphisms: dict[str, MorphismData] = field(default_factory=dict)
    paramcurves: dict[str, ParamPlaneCurve] = field(default_factory=dict)
    mordells: dict[str, OrbifoldP1Triple] = field(default_factory=dict)

    def kinds_of(self, name: str) -> list[str]:
        return [
            kind
            for kind, table in (
                ("curve", self.curves),
                ("plane", self.planes),
                ("fibration", self.fibrations),
                ("twostage", self.twostages),
                ("morphism", self.morphisms),
                ("paramcurve", self.paramcurves),
                ("mordell", self.mordells),
            )
            if name in table
        ]


@dataclass
class ParseResult:
    document: SpecDocument
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


class _Abort(Exception):
    """Internal: statement- or declaration-level parse failure."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.document = SpecDocument()
        self.pending_twostages: list[tuple[str, str, dict, Token]] = []
        self.paren_depth = 0

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        tok = self.peek()
        wanted = what or (text if text is not None else kind.lower())
        raise _Abort(
            Diagnostic("error", tok.line, tok.col, f"expected {wanted}, found {tok.text!r}")
        )

    def error(self, tok: Token, message: str) -> _Abort:
        return _Abort(Diagnostic("error", tok.line, tok.col, message))

    def report(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    # -- recovery

    def skip_statement(self) -> None:
        """Advance past the next semicolon, stopping at braces or EOF."""
        while not self.at("EOF"):
            if self.at("SEMI"):
                self.advance()
                return
            if self.at("RBRACE") or self.at("LBRACE"):
                return
            self.advance()

    def skip_declaration(self) -> None:
        """Advance to the next top-level declaration keyword."""
        depth = 0
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind == "LBRACE":
                depth += 1
            elif tok.kind == "RBRACE":
                depth = max(0, depth - 1)
                self.advance()
                if depth == 0 and self.peek().kind == "IDENT" and self.peek().text in _DECL_KEYWORDS:
                    return
                continue
            elif depth == 0 and tok.kind == "IDENT" and tok.text in _DECL_KEYWORDS:
                return
            self.advance()

    # -- literals

    def parse_int(self, what: str) -> int:
        tok = self.expect("NUMBER", what=what)
        return int(tok.text)

    def parse_multiplicity(self) -> Multiplicity:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "inf":
            self.advance()
            return Multiplicity.infinity()
        num_tok = self.expect("NUMBER", what="multiplicity (integer, a/b or inf)")
        value = Fraction(int(num_tok.text))
        if self.at("SLASH"):
            self.advance()
            den_tok = self.expect("NUMBER", what="denominator")
            den = int(den_tok.text)
            if den == 0:
                raise self.error(den_tok, "zero denominator")
            value = Fraction(int(num_tok.text), den)
        try:
            return Multiplicity(value)
        except DomainError as exc:
            raise _Abort(Diagnostic("error", num_tok.line, num_tok.col, str(exc)))

    # -- polynomial expressions

    def parse_poly(self, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
        self.paren_depth = 0  # an aborted expression may have left it raised
        terms = self._poly_expr(variables)
        return {e: c for e, c in terms.items() if c != 0}

    def _poly_expr(self, variables) -> dict[tuple[int, ...], Fraction]:
        terms = self._poly_term(variables)
        while self.at("PLUS") or self.at("MINUS"):
            op = self.advance()
            rhs = self._poly_term(variables)
            sign = 1 if op.kind == "PLUS" else -1
            for e, c in rhs.items():
                terms[e] = terms.get(e, Fraction(0)) + sign * c
        return terms

    def _poly_term(self, variables) -> dict[tuple[int, ...], Fraction]:
        result = self._poly_unary(variables)
        while self.at("STAR"):
            self.advance()
            rhs = self._poly_unary(variables)
            result = _poly_mul(result, rhs)
        return result

    def _poly_unary(self, variables) -> dict[tuple[int, ...], Fraction]:
        negate = False
        while self.at("MINUS"):
            self.advance()
            negate = not negate
        inner = self._poly_power(variables)
        return {e: -c for e, c in inner.items()} if negate else inner

    def _poly_power(self, variables) -> dict[tuple[int, ...], Fraction]:
        base = self._poly_atom(variables)
        if self.at("CARET"):
            self.advance()
            expo = self.parse_int("exponent")
            result = {(0,) * len(variables): Fraction(1)}
            for _ in range(expo):
                result = _poly_mul(result, base)
            return result
        return base

    def _poly_atom(self, variables) -> dict[tuple[int, ...], Fraction]:
        tok = self.peek()
        zero = (0,) * len(variables)
        if tok.kind == "NUMBER":
            self.advance()
            value = Fraction(int(tok.text))
            if self.at("SLASH"):
                self.advance()
                den_tok = self.expect("NUMBER", what="denominator")
                if int(den_tok.text) == 0:
                    raise self.error(den_tok, "zero denominator")
                value = Fraction(int(tok.text), int(den_tok.text))
            return {zero: value}
        if tok.kind == "IDENT" and tok.text in variables:
            self.advance()
            expo = tuple(1 if v == tok.text else 0 for v in variables)
            return {expo: Fraction(1)}
        if tok.kind == "LPAREN":
            if self.paren_depth == _MAX_PAREN_DEPTH:
                raise self.error(tok, f"parentheses nested deeper than {_MAX_PAREN_DEPTH} levels")
            self.advance()
            self.paren_depth += 1
            inner = self._poly_expr(variables)
            self.paren_depth -= 1
            self.expect("RPAREN")
            return inner
        raise self.error(
            tok,
            f"expected a polynomial in {', '.join(variables)}, found {tok.text!r}",
        )

    def homogeneous2(self, terms: dict[tuple[int, ...], Fraction], tok: Token) -> HomogeneousPoly2 | None:
        """Convert parsed (s, u) terms to a homogeneous form; None means the
        zero polynomial (degree resolved by the caller)."""
        if not terms:
            return None
        degrees = {es + eu for es, eu in terms}
        if len(degrees) != 1:
            raise self.error(tok, "polynomial is not homogeneous in s, u")
        d = degrees.pop()
        coeffs = [Fraction(0)] * (d + 1)
        for (es, _), c in terms.items():
            coeffs[es] = c
        return HomogeneousPoly2(d, tuple(coeffs))

    def homogeneous3(self, terms: dict[tuple[int, ...], Fraction], tok: Token) -> HomogeneousPoly3:
        if not terms:
            raise self.error(tok, "defining form must be nonzero")
        degrees = {i + j + k for i, j, k in terms}
        if len(degrees) != 1:
            raise self.error(tok, "polynomial is not homogeneous in x0, x1, x2")
        d = degrees.pop()
        return HomogeneousPoly3(d, tuple(terms.items()))

    # -- declarations

    def parse_document(self) -> None:
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in _DECL_KEYWORDS:
                self.report(
                    Diagnostic(
                        "error",
                        tok.line,
                        tok.col,
                        f"expected a declaration keyword, found {tok.text!r}",
                    )
                )
                self.advance()
                self.skip_declaration()
                continue
            try:
                getattr(self, f"_parse_{tok.text}")()
            except _Abort as abort:
                self.report(abort.diagnostic)
                self.skip_declaration()
        self._resolve_twostages()

    def _decl_header(self) -> tuple[str, Token]:
        kw = self.advance()
        name_tok = self.expect("IDENT", what="declaration name")
        self.expect("LBRACE")
        return name_tok.text, name_tok

    def _register(self, kind: str, name: str, tok: Token, value) -> None:
        if self.document.kinds_of(name):
            self.report(
                Diagnostic("error", tok.line, tok.col, f"duplicate declaration name {name!r}")
            )
            return
        getattr(self.document, kind)[name] = value

    def _statement_loop(self, handler) -> None:
        """Run per-statement handlers until the closing brace, recovering at
        semicolons so one bad statement does not lose the declaration."""
        while not self.at("RBRACE") and not self.at("EOF"):
            try:
                handler()
            except _Abort as abort:
                self.report(abort.diagnostic)
                self.skip_statement()
        self.expect("RBRACE")

    def _parse_curve(self) -> None:
        name, name_tok = self._decl_header()
        genus: int | None = None
        points: list[tuple[str, Multiplicity]] = []

        def stmt() -> None:
            nonlocal genus
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "genus":
                self.advance()
                genus = self.parse_int("genus")
                self.expect("SEMI")
            elif tok.kind == "IDENT" and tok.text == "point":
                self.advance()
                label = self.expect("IDENT", what="point label").text
                self.expect("IDENT", "mult")
                mult = self.parse_multiplicity()
                self.expect("SEMI")
                if any(lbl == label for lbl, _ in points):
                    raise self.error(tok, f"duplicate point label {label!r}")
                points.append((label, mult))
            else:
                raise self.error(tok, f"expected 'genus' or 'point', found {tok.text!r}")

        self._statement_loop(stmt)
        if genus is None:
            self.report(
                Diagnostic("error", name_tok.line, name_tok.col, f"curve {name!r} has no genus")
            )
            return
        try:
            value = CurveOrbifold(genus, OrbifoldDivisor(points))
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        self._register("curves", name, name_tok, value)

    def _parse_plane(self) -> None:
        name, name_tok = self._decl_header()
        components: list[tuple[str, int, Multiplicity]] = []
        forms: dict[str, HomogeneousPoly3] = {}

        def stmt() -> None:
            tok = self.peek()
            self.expect("IDENT", "component")
            label = self.expect("IDENT", what="component label").text
            self.expect("IDENT", "degree")
            degree = self.parse_int("degree")
            self.expect("IDENT", "mult")
            mult = self.parse_multiplicity()
            form = None
            if self.at("IDENT", "form"):
                self.advance()
                poly_tok = self.peek()
                terms = self.parse_poly(("x0", "x1", "x2"))
                form = self.homogeneous3(terms, poly_tok)
                if form.degree != degree:
                    raise self.error(
                        poly_tok,
                        f"form degree {form.degree} does not match declared degree {degree}",
                    )
            self.expect("SEMI")
            if any(lbl == label for lbl, _, _ in components):
                raise self.error(tok, f"duplicate component label {label!r}")
            components.append((label, degree, mult))
            if form is not None:
                forms[label] = form

        self._statement_loop(stmt)
        try:
            pair = PlaneArrangementPair(components)
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        kept = {c.label for c in pair.components}
        self._register(
            "planes",
            name,
            name_tok,
            PlaneDecl(pair, {lbl: f for lbl, f in forms.items() if lbl in kept}),
        )

    def _parse_fibration(self) -> None:
        name, name_tok = self._decl_header()
        fibers: dict[str, list[tuple[int, Multiplicity]]] = {}

        def over_block() -> None:
            tok = self.peek()
            self.expect("IDENT", "over")
            label = self.expect("IDENT", what="base divisor label").text
            if label in fibers:
                raise self.error(tok, f"duplicate base divisor {label!r}")
            self.expect("LBRACE")
            parts: list[tuple[int, Multiplicity]] = []

            def part_stmt() -> None:
                self.expect("IDENT", "part")
                self.expect("IDENT", "t")
                t = self.parse_int("coefficient t")
                self.expect("IDENT", "mult")
                mult = self.parse_multiplicity()
                self.expect("SEMI")
                parts.append((t, mult))

            self._statement_loop(part_stmt)
            if not parts:
                raise self.error(tok, f"base divisor {label!r} has no fiber components")
            fibers[label] = parts

        self._statement_loop(over_block)
        try:
            value = FibrationData(fibers)
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        self._register("fibrations", name, name_tok, value)

    def _parse_twostage(self) -> None:
        name, name_tok = self._decl_header()
        lower: dict[str, list[tuple[int, str]]] = {}
        upper_name: str | None = None

        def stmt() -> None:
            nonlocal upper_name
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "lower":
                self.advance()
                z_label = self.expect("IDENT", what="Z-divisor label").text
                if z_label in lower:
                    raise self.error(tok, f"duplicate Z-divisor {z_label!r}")
                self.expect("LBRACE")
                parts: list[tuple[int, str]] = []

                def lower_stmt() -> None:
                    self.expect("IDENT", "s")
                    s = self.parse_int("coefficient s")
                    self.expect("ARROW")
                    y_label = self.expect("IDENT", what="Y-divisor label").text
                    self.expect("SEMI")
                    parts.append((s, y_label))

                self._statement_loop(lower_stmt)
                if not parts:
                    raise self.error(tok, f"Z-divisor {z_label!r} has no components")
                lower[z_label] = parts
            elif tok.kind == "IDENT" and tok.text == "upper":
                self.advance()
                self.expect("EQUALS")
                upper_name = self.expect("IDENT", what="fibration name").text
                if self.at("SEMI"):
                    self.advance()
            else:
                raise self.error(tok, f"expected 'lower' or 'upper', found {tok.text!r}")

        self._statement_loop(stmt)
        if upper_name is None:
            self.report(
                Diagnostic(
                    "error", name_tok.line, name_tok.col, f"twostage {name!r} has no upper fibration"
                )
            )
            return
        self.pending_twostages.append((name, upper_name, lower, name_tok))

    def _parse_morphism(self) -> None:
        name, name_tok = self._decl_header()
        pairs: list[MorphismPair] = []
        divisors: dict[str, list[tuple[str, Multiplicity]]] = {"dX": [], "dY": []}
        seen_blocks: set[str] = set()

        def stmt() -> None:
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "pair":
                self.advance()
                y_label = self.expect("IDENT", what="Y-divisor label").text
                x_label = self.expect("IDENT", what="X-divisor label").text
                self.expect("IDENT", "t")
                t = self.parse_int("coefficient t")
                self.expect("SEMI")
                pairs.append(MorphismPair(y_label, x_label, t))
            elif tok.kind == "IDENT" and tok.text in ("dX", "dY"):
                which = tok.text
                self.advance()
                if which in seen_blocks:
                    raise self.error(tok, f"duplicate {which} block")
                seen_blocks.add(which)
                self.expect("LBRACE")

                def mult_stmt() -> None:
                    label = self.expect("IDENT", what="divisor label").text
                    self.expect("IDENT", "mult")
                    mult = self.parse_multiplicity()
                    self.expect("SEMI")
                    if any(lbl == label for lbl, _ in divisors[which]):
                        raise self.error(tok, f"duplicate label {label!r} in {which}")
                    divisors[which].append((label, mult))

                self._statement_loop(mult_stmt)
            else:
                raise self.error(tok, f"expected 'pair', 'dX' or 'dY', found {tok.text!r}")

        self._statement_loop(stmt)
        try:
            value = MorphismData(
                tuple(pairs), OrbifoldDivisor(divisors["dX"]), OrbifoldDivisor(divisors["dY"])
            )
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        self._register("morphisms", name, name_tok, value)

    def _parse_paramcurve(self) -> None:
        name, name_tok = self._decl_header()
        coords: dict[str, HomogeneousPoly2 | None] = {}
        coord_tokens: dict[str, Token] = {}

        def stmt() -> None:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in ("x0", "x1", "x2"):
                raise self.error(tok, f"expected 'x0', 'x1' or 'x2', found {tok.text!r}")
            which = tok.text
            self.advance()
            if which in coords:
                raise self.error(tok, f"duplicate coordinate {which}")
            self.expect("EQUALS")
            poly_tok = self.peek()
            terms = self.parse_poly(("s", "u"))
            form = self.homogeneous2(terms, poly_tok)
            self.expect("SEMI")
            coords[which] = form
            coord_tokens[which] = poly_tok

        self._statement_loop(stmt)
        missing = [c for c in ("x0", "x1", "x2") if c not in coords]
        if missing:
            self.report(
                Diagnostic(
                    "error",
                    name_tok.line,
                    name_tok.col,
                    f"paramcurve {name!r} is missing {', '.join(missing)}",
                )
            )
            return
        degrees = {f.degree for f in coords.values() if f is not None}
        if not degrees:
            self.report(
                Diagnostic(
                    "error", name_tok.line, name_tok.col, f"paramcurve {name!r} is identically zero"
                )
            )
            return
        if len(degrees) != 1:
            self.report(
                Diagnostic(
                    "error",
                    name_tok.line,
                    name_tok.col,
                    f"coordinate degrees differ: {sorted(degrees)}",
                )
            )
            return
        d = degrees.pop()
        filled = {
            which: (f if f is not None else HomogeneousPoly2.zero(d))
            for which, f in coords.items()
        }
        try:
            value = ParamPlaneCurve(filled["x0"], filled["x1"], filled["x2"])
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        self._register("paramcurves", name, name_tok, value)

    def _parse_mordell(self) -> None:
        name, name_tok = self._decl_header()
        values: dict[str, int] = {}

        def stmt() -> None:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in ("p", "q", "r"):
                raise self.error(tok, f"expected 'p', 'q' or 'r', found {tok.text!r}")
            which = tok.text
            self.advance()
            if which in values:
                raise self.error(tok, f"duplicate field {which}")
            values[which] = self.parse_int(which)
            self.expect("SEMI")

        self._statement_loop(stmt)
        missing = [c for c in ("p", "q", "r") if c not in values]
        if missing:
            self.report(
                Diagnostic(
                    "error",
                    name_tok.line,
                    name_tok.col,
                    f"mordell {name!r} is missing {', '.join(missing)}",
                )
            )
            return
        try:
            value = OrbifoldP1Triple(values["p"], values["q"], values["r"])
        except DomainError as exc:
            self.report(Diagnostic("error", name_tok.line, name_tok.col, str(exc)))
            return
        self._register("mordells", name, name_tok, value)

    def _resolve_twostages(self) -> None:
        for name, upper_name, lower, tok in self.pending_twostages:
            upper = self.document.fibrations.get(upper_name)
            if upper is None:
                self.report(
                    Diagnostic(
                        "error", tok.line, tok.col, f"unknown upper fibration {upper_name!r}"
                    )
                )
                continue
            try:
                data = TwoStageData(upper, lower)
            except DomainError as exc:
                self.report(Diagnostic("error", tok.line, tok.col, str(exc)))
                continue
            self._register("twostages", name, tok, TwoStageDecl(upper_name, data))


def _poly_mul(
    a: dict[tuple[int, ...], Fraction], b: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


def parse(source: str) -> ParseResult:
    """Parse a spec document; diagnostics collect every error found."""
    tokens, diagnostics = tokenize(source)
    parser = _Parser(tokens, diagnostics)
    parser.parse_document()
    return ParseResult(parser.document, parser.diagnostics)


# ---------------------------------------------------------------------------
# pretty-printing


def format_document(doc: SpecDocument) -> str:
    chunks: list[str] = []
    for name, curve in doc.curves.items():
        lines = [f"curve {name} {{", f"  genus {curve.genus};"]
        for label, mult in curve.marks.items():
            lines.append(f"  point {label} mult {mult};")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, decl in doc.planes.items():
        lines = [f"plane {name} {{"]
        for comp in decl.pair.components:
            stmt = f"  component {comp.label} degree {comp.degree} mult {comp.multiplicity}"
            form = decl.forms.get(comp.label)
            if form is not None:
                stmt += f" form {render_poly3(form)}"
            lines.append(stmt + ";")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, fd in doc.fibrations.items():
        lines = [f"fibration {name} {{"]
        for label, comps in fd.items():
            lines.append(f"  over {label} {{")
            for comp in comps:
                lines.append(f"    part t {comp.t} mult {comp.multiplicity};")
            lines.append("  }")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, decl in doc.twostages.items():
        lines = [f"twostage {name} {{"]
        for z_label, comps in decl.data.lower.items():
            lines.append(f"  lower {z_label} {{")
            for comp in comps:
                lines.append(f"    s {comp.s} -> {comp.y_label};")
            lines.append("  }")
        lines.append(f"  upper = {decl.upper_name};")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, md in doc.morphisms.items():
        lines = [f"morphism {name} {{"]
        for pair in md.pairs:
            lines.append(f"  pair {pair.y_label} {pair.x_label} t {pair.t};")
        for title, divisor in (("dX", md.delta_x), ("dY", md.delta_y)):
            if divisor.is_zero:
                continue
            lines.append(f"  {title} {{")
            for label, mult in divisor.items():
                lines.append(f"    {label} mult {mult};")
            lines.append("  }")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, curve in doc.paramcurves.items():
        lines = [f"paramcurve {name} {{"]
        for which, form in zip(("x0", "x1", "x2"), curve.coords):
            lines.append(f"  {which} = {render_poly2(form)};")
        lines.append("}")
        chunks.append("\n".join(lines))
    for name, triple in doc.mordells.items():
        chunks.append(
            "\n".join(
                [
                    f"mordell {name} {{",
                    f"  p {triple.p};",
                    f"  q {triple.q};",
                    f"  r {triple.r};",
                    "}",
                ]
            )
        )
    return "\n\n".join(chunks) + ("\n" if chunks else "")
