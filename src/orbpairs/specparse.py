"""Parser and pretty-printer for the orbifold spec DSL.

The language is line-oriented and keyword-driven: seven declaration kinds
(curve, plane, fibration, twostage, morphism, paramcurve, mordell), each a
named brace block of semicolon-terminated statements.  Rationals are written
``a/b`` or as integers and ``inf`` is the sole infinity literal; polynomials
use integer or rational coefficients, the variables of their context
(``s, u`` for parametrizations, ``x0, x1, x2`` for plane forms), and
``+ - * ^`` with parentheses.

Parsing is recursive descent with precise source spans.  Errors are
collected as diagnostics and never abort the parse.  A declaration starts
where the tokens read ``<kind> <name> {``: a body ends there, a bad statement
skips to its semicolon or past its brace block but never past there, and a
broken declaration skips to the next declaration keyword.  Every declaration
goes through one pipeline: the header, then a kind-specific reader that
returns the value or refuses it at the name, then one step that files it.
Cross-references (the ``upper`` fibration of a twostage) resolve after the
whole document is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Callable, Collection, Iterable, NamedTuple
from ._value import dataclass, field, fields
from .curveclass import CurveOrbifold
from .curverestrict import ParamPlaneCurve, PlaneDivisorComponent
from .orbcore import (
    MAX_COEFF_DIGITS,
    DomainError,
    Multiplicity,
    OrbifoldDivisor,
    too_long_to_print,
)
from .planepairs import PlaneArrangementPair
from .polynomials import HomogeneousPoly2, HomogeneousPoly3

# The models of fibration, twostage, morphism and mordell declarations are
# imported by their readers, so a spec without such a declaration never
# loads fibration or mordell.  Forms are the parser's own types and stay above.
if TYPE_CHECKING:
    from .fibration import FibrationData, MorphismData, TwoStageData
    from .mordell import OrbifoldP1Triple

# Parenthesised polynomial sub-expressions nest at most this deep; each level
# costs a Python frame, so deeper input is reported as a parse error instead
# of exhausting the interpreter's recursion limit.
_MAX_PAREN_DEPTH = 100

# Exponents and the degree of every product and power are capped here, and
# checked before expanding, so the input alone cannot set unbounded work.
_MAX_DEGREE = 1000

# ---------------------------------------------------------------------------
# tokens and diagnostics


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


_SYMBOLS = {
    "{": "LBRACE", "}": "RBRACE", ";": "SEMI", "=": "EQUALS", "/": "SLASH", "*": "STAR",
    "^": "CARET", "+": "PLUS", "-": "MINUS", "(": "LPAREN", ")": "RPAREN", "->": "ARROW",
}

_PLANE_VARIABLES = ("x0", "x1", "x2")


# One match per token: the blanks before it, then a run of word characters
# (letters, digits, other numeric characters and '_'), a symbol, a line
# break, a comment (which ends at the line break), any other character
# (which is no token) or the end of the source.  Every character starts
# some branch, so the blanks are never backtracked into.
_TOKEN = re.compile(r"([ \t\r]*)(?:(\w+)|(->|[{};=/*^+\-()])|(\n)|#.*|(.)|\Z)")


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Tokens and bad-character diagnostics; every column is a character's
    offset from the start of its line, plus one."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    new = tuple.__new__  # a Token without the call to its generated __new__
    line, col = 1, 1
    for blanks, word, symbol, newline, bad in _TOKEN.findall(source):
        col += len(blanks)
        if word:
            if word[0].isalpha() or word[0] == "_":
                tokens.append(new(Token, ("IDENT", word, line, col)))
            elif word.isdigit():
                tokens.append(new(Token, ("NUMBER", word, line, col)))
            else:
                _split_word(word, line, col, tokens, diagnostics)
            col += len(word)
        elif symbol:
            tokens.append(new(Token, (_SYMBOLS[symbol], symbol, line, col)))
            col += len(symbol)
        elif newline:
            line, col = line + 1, 1
        elif bad:
            diagnostics.append(Diagnostic(line, col, f"unexpected character {bad!r}"))
            col += 1
    tokens.append(Token("EOF", "", line, len(source) - source.rfind("\n")))  # past the last line
    return tokens, diagnostics


def _split_word(word: str, line: int, col: int, tokens: list, diagnostics: list) -> None:
    """Tokenize a run of word characters that starts with a digit or another
    numeric character: each run of digits is a NUMBER, a letter or '_'
    starts an IDENT to the end of the run, and any other character is no
    token."""
    k = 0
    while k < len(word):
        ch = word[k]
        if ch.isalpha() or ch == "_":
            tokens.append(Token("IDENT", word[k:], line, col + k))
            return
        j = k + 1
        if ch.isdigit():
            while j < len(word) and word[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", word[k:j], line, col + k))
        else:
            diagnostics.append(Diagnostic(line, col + k, f"unexpected character {ch!r}"))
        k = j


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


# the declaration kinds, in document order: each has a table named <kind>s
_DECL_KEYWORDS = tuple(table.name[:-1] for table in fields(SpecDocument))


@dataclass
class ParseResult:
    document: SpecDocument
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _Abort(Exception):
    """Internal: statement- or declaration-level parse failure."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic


def _diag(tok: Token, message: str) -> Diagnostic:
    return Diagnostic(tok.line, tok.col, message)


def _fresh(table: dict, tok: Token, label: str, what: str) -> str:
    """``label``, which ``table`` must not hold yet; a repeat is a
    diagnostic at ``tok``."""
    if label in table:
        raise _Abort(_diag(tok, f"duplicate {what} {label!r}"))
    return label


def _require(values: dict, names: tuple[str, ...], owner: str) -> None:
    missing = [n for n in names if n not in values]
    if missing:
        raise DomainError(f"{owner} is missing {', '.join(missing)}")


class _Parser:
    def __init__(self, tokens: list[Token], diagnostics: list[Diagnostic]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = diagnostics
        self.document = SpecDocument()
        self.declared: set[str] = set()  # the names in every table of the document
        self.twostages: list[tuple[Token, Callable[[], TwoStageDecl]]] = []
        self.paren_depth = 0

    # -- token plumbing: the next token is self.tokens[self.pos], and a step
    # past it is self.pos += 1, never taken at EOF

    def accept(self, kind: str, text: str | None = None) -> bool:
        """Consume the next token if it has this kind (and text)."""
        tok = self.tokens[self.pos]
        matched = tok.kind == kind and (text is None or tok.text == text)
        self.pos += matched
        return matched

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        wanted = what or (text if text is not None else kind.lower())
        raise self.error(tok, f"expected {wanted}, found {tok.text!r}")

    def keyword(self, options: Collection[str]) -> Token:
        """Consume one of the keywords ``options``."""
        tok = self.tokens[self.pos]
        if tok.kind != "IDENT" or tok.text not in options:
            *rest, last = options
            wanted = f"{', '.join(map(repr, rest))} or {last!r}" if rest else last
            raise self.error(tok, f"expected {wanted}, found {tok.text!r}")
        self.pos += 1
        return tok

    def error(self, tok: Token, message: str) -> _Abort:
        return _Abort(_diag(tok, message))

    def report(self, diagnostic: Diagnostic) -> None:
        """Record ``diagnostic``; an exact repeat of the last one (an EOF met
        by every enclosing block) is dropped."""
        if not self.diagnostics or self.diagnostics[-1] != diagnostic:
            self.diagnostics.append(diagnostic)

    # -- recovery: every body and every skip stops where a declaration starts

    def at_declaration(self) -> bool:
        """Whether the next tokens read ``<kind> <name> {``, which no legal
        body holds: a dX/dY mark spelled like a kind has no ``{`` third."""
        tok = self.tokens[self.pos]
        return tok.kind == "IDENT" and tok.text in _DECL_KEYWORDS and (
            self.tokens[self.pos + 1].kind == "IDENT" and self.tokens[self.pos + 2].kind == "LBRACE"
        )

    def skip_statement(self) -> None:
        """Advance past the next semicolon or balanced brace block, stopping
        at an unmatched closing brace, the start of a declaration or EOF."""
        depth = 0
        while (kind := self.tokens[self.pos].kind) != "EOF" and not self.at_declaration():
            if kind == "RBRACE" and depth == 0:
                return
            self.pos += 1
            if kind == "LBRACE":
                depth += 1
            elif kind == "RBRACE":
                depth -= 1
                if depth == 0:
                    return
            elif kind == "SEMI" and depth == 0:
                return

    def skip_declaration(self) -> None:
        """Skip unmatched closing braces and whole statements up to the
        next declaration keyword."""
        while (tok := self.tokens[self.pos]).kind != "EOF" and tok.text not in _DECL_KEYWORDS:
            if not self.accept("RBRACE"):
                self.skip_statement()

    # -- literals

    def parse_int(self, what: str) -> int:
        tok = self.expect("NUMBER", what=what)
        try:
            return int(tok.text)
        except ValueError:  # past the interpreter's digit limit, or a digit such as '²'
            raise self.error(tok, f"cannot read the {len(tok.text)}-digit integer literal")

    def parse_rational(self, what: str) -> int | Fraction:
        """``NUMBER [/ NUMBER]`` with a nonzero denominator; an ``int``
        unless the literal has a denominator."""
        value = self.parse_int(what)
        if not self.accept("SLASH"):
            return value
        den_tok = self.tokens[self.pos]
        den = self.parse_int("denominator")
        if den == 0:
            raise self.error(den_tok, "zero denominator")
        return Fraction(value, den)

    def parse_multiplicity(self) -> Multiplicity:
        tok = self.tokens[self.pos]
        if self.accept("IDENT", "inf"):
            return Multiplicity.infinity()
        value = self.parse_rational("multiplicity (integer, a/b or inf)")
        try:
            return Multiplicity(value)
        except DomainError as exc:
            raise self.error(tok, str(exc))

    # -- polynomial expressions

    def parse_poly(self, variables: tuple[str, ...]) -> dict[tuple[int, ...], int | Fraction]:
        """The nonzero terms of a polynomial, keyed by exponent tuples.
        Coefficients are ``int`` unless an ``a/b`` literal made them
        ``Fraction``."""
        self.paren_depth = 0  # an aborted expression may have left it raised
        terms = self._poly_sum(variables)
        return {e: c for e, c in terms.items() if c}

    def _poly_sum(self, variables) -> dict[tuple[int, ...], int | Fraction]:
        """A sum of terms, a term a product of factors, a factor ``-``* atom
        [``^`` n]: one loop per level, and only a parenthesised atom
        recurses.  ``-`` binds looser than ``^``, so ``-s^2`` is -(s^2)."""
        tokens = self.tokens
        terms = sign = None  # the sum so far, and the + or - before the next term
        while True:
            product = star = None  # the product so far, and the * before the next factor
            while True:
                negate = False
                while (tok := tokens[self.pos]).kind == "MINUS":
                    self.pos += 1
                    negate = not negate
                if tok.kind == "NUMBER":
                    factor = {(0,) * len(variables): self.parse_rational("number")}
                elif tok.kind == "IDENT" and tok.text in variables:
                    self.pos += 1
                    expo = [0] * len(variables)
                    expo[variables.index(tok.text)] = 1
                    factor = {tuple(expo): 1}
                elif tok.kind == "LPAREN":
                    if self.paren_depth == _MAX_PAREN_DEPTH:
                        limit = f"parentheses nested deeper than {_MAX_PAREN_DEPTH} levels"
                        raise self.error(tok, limit)
                    self.pos += 1
                    self.paren_depth += 1
                    factor = self._poly_sum(variables)
                    self.paren_depth -= 1
                    self.expect("RPAREN")
                else:
                    raise self.error(
                        tok, f"expected a polynomial in {', '.join(variables)}, found {tok.text!r}"
                    )
                if (caret := tokens[self.pos]).kind == "CARET":
                    self.pos += 1
                    factor = self._power(caret, factor, self.parse_int("exponent"), len(variables))
                if negate:
                    factor = {e: -c for e, c in factor.items()}
                if star is None:
                    product = factor
                else:
                    self._check_degree(star, _degree(product) + _degree(factor))
                    product = self._product(star, product, factor)
                if (star := tokens[self.pos]).kind != "STAR":
                    break
                self.pos += 1
            if sign is None:
                terms = product
            else:
                scale = 1 if sign.kind == "PLUS" else -1
                for e, c in product.items():
                    terms[e] = terms.get(e, 0) + scale * c
                self._check_coefficients(sign, (terms[e] for e in product))
            if (sign := tokens[self.pos]).kind not in ("PLUS", "MINUS"):
                return terms
            self.pos += 1

    def _power(self, op: Token, base, expo: int, nvars: int) -> dict[tuple[int, ...], int | Fraction]:
        """``base`` in ``nvars`` variables to the power ``expo``, read after
        ``op``."""
        if expo > _MAX_DEGREE:
            raise self.error(op, f"exponent exceeds the limit of {_MAX_DEGREE}")
        self._check_degree(op, _degree(base) * expo)
        # square and multiply from the lowest bit: every square is
        # base^(2^i) with 2^i <= expo, so the degree check above covers it
        result = None
        while expo:
            if expo & 1:
                result = base if result is None else self._product(op, result, base)
            expo >>= 1
            if expo:
                base = self._product(op, base, base)
        return {(0,) * nvars: 1} if result is None else result

    def _product(self, op: Token, a, b) -> dict[tuple[int, ...], int | Fraction]:
        product = _poly_mul(a, b)
        self._check_coefficients(op, product.values())
        return product

    def _check_degree(self, op: Token, degree: int) -> None:
        if degree > _MAX_DEGREE:
            raise self.error(op, f"polynomial degree {degree} exceeds the limit of {_MAX_DEGREE}")

    def _check_coefficients(self, op: Token, coeffs: Iterable[int | Fraction]) -> None:
        # numerators and denominators that +, -, * and ^ build are capped at
        # the length of the longest integer literal, so every coefficient the
        # parser accepts can be printed
        if any(map(too_long_to_print, coeffs)):
            raise self.error(op, f"coefficient exceeds the limit of {MAX_COEFF_DIGITS} digits")

    def homogeneous(self, variables: tuple[str, ...]):
        """Parse a homogeneous polynomial: a HomogeneousPoly3 in the plane
        variables, a HomogeneousPoly2 in (s, u), None if it is zero."""
        tok = self.tokens[self.pos]
        terms = self.parse_poly(variables)
        if not terms:
            return None
        degrees = set(map(sum, terms))
        if len(degrees) != 1:
            raise self.error(tok, f"polynomial is not homogeneous in {', '.join(variables)}")
        d = degrees.pop()
        if variables == _PLANE_VARIABLES:
            return HomogeneousPoly3(d, tuple(terms.items()))
        coeffs = [Fraction(0)] * (d + 1)
        for (es, _), c in terms.items():
            coeffs[es] = c
        return HomogeneousPoly2(d, tuple(coeffs))

    # -- declarations

    def parse_document(self) -> None:
        """Read ``<kind> <name> { ... }`` declarations.  ``_parse_<kind>``
        reads the body and returns the value or refuses it at the name; a
        twostage queues its build instead, run once every upper fibration is
        known.  A reader raises _Abort while it reads and DomainError only
        after the closing brace, so a refused declaration leaves nothing to
        skip."""
        while (kw := self.tokens[self.pos]).kind != "EOF":
            self.pos += 1
            if kw.kind != "IDENT" or kw.text not in _DECL_KEYWORDS:
                self.report(_diag(kw, f"expected a declaration keyword, found {kw.text!r}"))
                self.skip_declaration()
                continue
            try:
                name = self.expect("IDENT", what="declaration name")
                value = getattr(self, f"_parse_{kw.text}")(name)
                if value is not None:
                    self._declare(kw.text, name, value)
            except _Abort as abort:
                self.report(abort.diagnostic)
                self.skip_declaration()
            except DomainError as exc:
                self.report(_diag(name, str(exc)))
        for name, build in self.twostages:
            try:
                self._declare("twostage", name, build())
            except DomainError as exc:
                self.report(_diag(name, str(exc)))

    def _declare(self, kind: str, name: Token, value: object) -> None:
        """File ``value`` under the declared name, unless a declaration of
        any kind holds that name already."""
        if name.text in self.declared:
            self.report(_diag(name, f"duplicate declaration name {name.text!r}"))
        else:
            self.declared.add(name.text)
            getattr(self.document, kind + "s")[name.text] = value

    def _statement_loop(self, handler) -> None:
        """Read ``{``, then run per-statement handlers up to the closing
        ``}``, which must come before the start of a declaration.  The rest
        of a bad statement is skipped so it does not lose the declaration; a
        statement that failed after reading its closing ``;`` or ``}`` has no
        rest to skip."""
        self.expect("LBRACE")
        while self.tokens[self.pos].kind not in ("RBRACE", "EOF") and not self.at_declaration():
            start = self.pos
            try:
                handler()
            except _Abort as abort:
                self.report(abort.diagnostic)
                if self.pos == start or self.tokens[self.pos - 1].kind not in ("SEMI", "RBRACE"):
                    self.skip_statement()
        self.expect("RBRACE")

    def _statements(
        self, readers: dict[str, Callable[[Token], object]], what: str = "field", many: tuple = ()
    ) -> dict:
        """Read a ``{ ... }`` body of statements, each a keyword of
        ``readers`` whose reader consumes the rest of it, its ``;`` or block
        included.  A keyword not in ``many`` may appear once: its reader's
        value is filed only when the statement is whole, and a repeat is a
        diagnostic at the keyword.  Returns the filed values by keyword."""
        once: dict = {}

        def stmt() -> None:
            tok = self.keyword(readers)
            if tok.text in once:
                raise self.error(tok, f"duplicate {what} {tok.text}")
            value = readers[tok.text](tok)
            if tok.text not in many:
                once[tok.text] = value

        self._statement_loop(stmt)
        return once

    def ended(self, value):
        """``value``, once the ``;`` that ends its statement is read."""
        self.expect("SEMI")
        return value

    def _parse_curve(self, name: Token) -> CurveOrbifold:
        points: dict[str, Multiplicity] = {}

        def point(tok: Token) -> None:
            label = self.expect("IDENT", what="point label").text
            self.expect("IDENT", "mult")
            mult = self.ended(self.parse_multiplicity())
            points[_fresh(points, tok, label, "point label")] = mult

        once = self._statements(
            {"genus": lambda _: self.ended(self.parse_int("genus")), "point": point},
            many=("point",),
        )
        if "genus" not in once:
            raise DomainError(f"curve {name.text!r} has no genus")
        return CurveOrbifold(once["genus"], OrbifoldDivisor(points))

    def _parse_plane(self, name: Token) -> PlaneDecl:
        components: dict[str, tuple[str, int, Multiplicity]] = {}
        forms: dict[str, HomogeneousPoly3] = {}

        def component(tok: Token) -> None:
            label = self.expect("IDENT", what="component label").text
            self.expect("IDENT", "degree")
            degree = self.parse_int("degree")
            self.expect("IDENT", "mult")
            mult = self.parse_multiplicity()
            form = None
            if self.accept("IDENT", "form"):
                poly_tok = self.tokens[self.pos]
                form = self.homogeneous(_PLANE_VARIABLES)
                if form is None:
                    raise self.error(poly_tok, "defining form must be nonzero")
                if form.degree != degree:
                    raise self.error(
                        poly_tok,
                        f"form degree {form.degree} does not match declared degree {degree}",
                    )
            self.expect("SEMI")
            components[_fresh(components, tok, label, "component label")] = (label, degree, mult)
            if form is not None:
                forms[label] = form

        self._statements({"component": component}, many=("component",))
        pair = PlaneArrangementPair(tuple(components.values()))
        kept = {c.label for c in pair.components}
        return PlaneDecl(pair, {lbl: f for lbl, f in forms.items() if lbl in kept})

    def _parse_fibration(self, name: Token) -> FibrationData:
        fibers: dict[str, list[tuple[int, Multiplicity]]] = {}

        def over(tok: Token) -> None:
            label = self.expect("IDENT", what="base divisor label").text
            _fresh(fibers, tok, label, "base divisor")
            parts: list[tuple[int, Multiplicity]] = []

            def part(_: Token) -> None:
                self.expect("IDENT", "t")
                t = self.parse_int("coefficient t")
                self.expect("IDENT", "mult")
                parts.append((t, self.ended(self.parse_multiplicity())))

            self._statements({"part": part}, many=("part",))
            if not parts:
                raise self.error(tok, f"base divisor {label!r} has no fiber components")
            fibers[label] = parts

        self._statements({"over": over}, many=("over",))
        from .fibration import FibrationData
        return FibrationData(fibers)

    def _parse_twostage(self, name: Token) -> None:
        lower: dict[str, list[tuple[int, str]]] = {}

        def lower_block(tok: Token) -> None:
            z_label = self.expect("IDENT", what="Z-divisor label").text
            _fresh(lower, tok, z_label, "Z-divisor")
            parts: list[tuple[int, str]] = []

            def lower_part(_: Token) -> None:
                s = self.parse_int("coefficient s")
                self.expect("ARROW")
                parts.append((s, self.ended(self.expect("IDENT", what="Y-divisor label").text)))

            self._statements({"s": lower_part}, many=("s",))
            if not parts:
                raise self.error(tok, f"Z-divisor {z_label!r} has no components")
            lower[z_label] = parts

        def upper(_: Token) -> str:
            self.expect("EQUALS")
            upper_name = self.expect("IDENT", what="fibration name").text
            self.accept("SEMI")
            return upper_name

        once = self._statements({"lower": lower_block, "upper": upper}, many=("lower",))
        if "upper" not in once:
            raise DomainError(f"twostage {name.text!r} has no upper fibration")
        upper_name = once["upper"]

        def build() -> TwoStageDecl:
            from .fibration import TwoStageData
            fibration = self.document.fibrations.get(upper_name)
            if fibration is None:
                raise DomainError(f"unknown upper fibration {upper_name!r}")
            return TwoStageDecl(upper_name, TwoStageData(fibration, lower))

        self.twostages.append((name, build))  # the upper fibration may come later

    def _parse_morphism(self, name: Token) -> MorphismData:
        pairs: list[tuple[str, str, int]] = []

        def pair(_: Token) -> None:
            y_label = self.expect("IDENT", what="Y-divisor label").text
            x_label = self.expect("IDENT", what="X-divisor label").text
            self.expect("IDENT", "t")
            pairs.append((y_label, x_label, self.ended(self.parse_int("coefficient t"))))

        def divisor(tok: Token) -> dict[str, Multiplicity]:
            marks: dict[str, Multiplicity] = {}

            def mark() -> None:
                label = self.expect("IDENT", what="divisor label")
                self.expect("IDENT", "mult")
                mult = self.ended(self.parse_multiplicity())
                marks[_fresh(marks, label, label.text, f"{tok.text} label")] = mult

            self._statement_loop(mark)
            return marks

        divisors = self._statements(
            {"pair": pair, "dX": divisor, "dY": divisor}, what="block", many=("pair",)
        )
        from .fibration import MorphismData, MorphismPair
        return MorphismData(
            tuple(MorphismPair(*pair) for pair in pairs),
            OrbifoldDivisor(divisors.get("dX", {})),
            OrbifoldDivisor(divisors.get("dY", {})),
        )

    def _parse_paramcurve(self, name: Token) -> ParamPlaneCurve:
        def coordinate(_: Token) -> HomogeneousPoly2 | None:
            self.expect("EQUALS")
            return self.ended(self.homogeneous(("s", "u")))

        coords = self._statements(dict.fromkeys(_PLANE_VARIABLES, coordinate), "coordinate")
        _require(coords, _PLANE_VARIABLES, f"paramcurve {name.text!r}")
        degrees = {f.degree for f in coords.values() if f is not None}
        if not degrees:
            raise DomainError(f"paramcurve {name.text!r} is identically zero")
        # a zero coordinate takes the top degree; ParamPlaneCurve rejects
        # coordinates of differing degrees
        d = max(degrees)
        return ParamPlaneCurve(*(coords[c] or HomogeneousPoly2.zero(d) for c in _PLANE_VARIABLES))

    def _parse_mordell(self, name: Token) -> OrbifoldP1Triple:
        values = self._statements(
            dict.fromkeys(("p", "q", "r"), lambda tok: self.ended(self.parse_int(tok.text)))
        )
        from .mordell import OrbifoldP1Triple
        _require(values, ("p", "q", "r"), f"mordell {name.text!r}")
        return OrbifoldP1Triple(values["p"], values["q"], values["r"])


def _degree(terms: dict[tuple[int, ...], int | Fraction]) -> int:
    return max(map(sum, terms), default=0)


def _poly_mul(
    a: dict[tuple[int, ...], int | Fraction], b: dict[tuple[int, ...], int | Fraction]
) -> dict[tuple[int, ...], int | Fraction]:
    out: dict[tuple[int, ...], int | Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def parse(source: str) -> ParseResult:
    """Parse a spec document; diagnostics collect every error found."""
    tokens, diagnostics = tokenize(source)
    parser = _Parser(tokens, diagnostics)
    parser.parse_document()
    return ParseResult(parser.document, parser.diagnostics)


# ---------------------------------------------------------------------------
# pretty-printing


def _block(head: str, items: Iterable[str]) -> str:
    """``head {``, then every line of ``items`` indented two spaces, then
    ``}``; an item may itself be a block."""
    body = "".join(f"\n  {line}" for line in "\n".join(items).splitlines())
    return f"{head} {{{body}\n}}"


def format_document(doc: SpecDocument) -> str:
    blocks: list[str] = []
    for name, curve in doc.curves.items():
        points = [f"point {label} mult {mult};" for label, mult in curve.marks.items()]
        blocks.append(_block(f"curve {name}", [f"genus {curve.genus};", *points]))
    for name, decl in doc.planes.items():
        stmts = []
        for comp in decl.pair.components:
            stmt = f"component {comp.label} degree {comp.degree} mult {comp.multiplicity}"
            form = decl.forms.get(comp.label)
            stmts.append(stmt + ("" if form is None else f" form {form}") + ";")
        blocks.append(_block(f"plane {name}", stmts))
    for name, fd in doc.fibrations.items():
        overs = [
            _block(f"over {label}", [f"part t {c.t} mult {c.multiplicity};" for c in comps])
            for label, comps in fd.items()
        ]
        blocks.append(_block(f"fibration {name}", overs))
    for name, decl in doc.twostages.items():
        lowers = [
            _block(f"lower {z_label}", [f"s {c.s} -> {c.y_label};" for c in comps])
            for z_label, comps in decl.data.lower.items()
        ]
        blocks.append(_block(f"twostage {name}", [*lowers, f"upper = {decl.upper_name};"]))
    for name, md in doc.morphisms.items():
        pairs = [f"pair {pair.y_label} {pair.x_label} t {pair.t};" for pair in md.pairs]
        divisors = [
            _block(title, [f"{label} mult {mult};" for label, mult in divisor.items()])
            for title, divisor in (("dX", md.delta_x), ("dY", md.delta_y))
            if not divisor.is_zero
        ]
        blocks.append(_block(f"morphism {name}", pairs + divisors))
    for name, curve in doc.paramcurves.items():
        coords = [f"{which} = {form};" for which, form in zip(_PLANE_VARIABLES, curve.coords)]
        blocks.append(_block(f"paramcurve {name}", coords))
    for name, triple in doc.mordells.items():
        stmts = [f"p {triple.p};", f"q {triple.q};", f"r {triple.r};"]
        blocks.append(_block(f"mordell {name}", stmts))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
