"""The parser's former polynomial evaluator, kept as a reference: terms are
dicts keyed by exponent tuples with ``Fraction`` coefficients, multiplied
term by term, and ``^`` is square and multiply from the constant 1.

``OracleParser`` is the spec parser with only its polynomial methods
replaced, so parsing a document through it gives the documents and the
diagnostics that the former evaluator gave.  Its expression reader is the
former one too: one method per precedence level, sum, term, unary minus,
power and atom, each calling the next.
"""

from fractions import Fraction

from orbpairs.specparse import (
    _MAX_DEGREE,
    _MAX_PAREN_DEPTH,
    ParseResult,
    _Abort,
    _Parser,
    tokenize,
)


def _degree(terms):
    return max((sum(e) for e in terms), default=0)


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


class OracleParser(_Parser):
    def parse_poly(self, variables):
        self.paren_depth = 0
        terms = self._poly_expr(variables)
        return {e: c for e, c in terms.items() if c != 0}

    def _poly_expr(self, variables):
        terms = self._poly_term(variables)
        while (op := self.tokens[self.pos]).kind in ("PLUS", "MINUS"):
            self.pos += 1
            rhs = self._poly_term(variables)
            sign = 1 if op.kind == "PLUS" else -1
            for e, c in rhs.items():
                terms[e] = terms.get(e, Fraction(0)) + sign * c
            self._check_coefficients(op, (terms[e] for e in rhs))
        return terms

    def _poly_term(self, variables):
        result = self._poly_unary(variables)
        while (op := self.tokens[self.pos]).kind == "STAR":
            self.pos += 1
            rhs = self._poly_unary(variables)
            self._check_degree(op, _degree(result) + _degree(rhs))
            result = self._product(op, result, rhs)
        return result

    def _poly_unary(self, variables):
        negate = False
        while self.tokens[self.pos].kind == "MINUS":
            self.pos += 1
            negate = not negate
        inner = self._poly_power(variables)
        return {e: -c for e, c in inner.items()} if negate else inner

    def _poly_power(self, variables):
        base = self._poly_atom(variables)
        op = self.tokens[self.pos]
        if not self.accept("CARET"):
            return base
        expo = self.parse_int("exponent")
        if expo > _MAX_DEGREE:
            raise self.error(op, f"exponent exceeds the limit of {_MAX_DEGREE}")
        self._check_degree(op, _degree(base) * expo)
        result = {(0,) * len(variables): Fraction(1)}
        while expo:
            if expo & 1:
                result = self._product(op, result, base)
            expo >>= 1
            if expo:
                base = self._product(op, base, base)
        return result

    def _product(self, op, a, b):
        product = _poly_mul(a, b)
        self._check_coefficients(op, product.values())
        return product

    def _poly_atom(self, variables):
        tok = self.tokens[self.pos]
        if tok.kind == "NUMBER":
            return {(0,) * len(variables): Fraction(self.parse_rational("number"))}
        if tok.kind == "IDENT" and tok.text in variables:
            self.pos += 1
            return {tuple(1 if v == tok.text else 0 for v in variables): Fraction(1)}
        if tok.kind == "LPAREN":
            if self.paren_depth == _MAX_PAREN_DEPTH:
                raise self.error(tok, f"parentheses nested deeper than {_MAX_PAREN_DEPTH} levels")
            self.pos += 1
            self.paren_depth += 1
            inner = self._poly_expr(variables)
            self.paren_depth -= 1
            self.expect("RPAREN")
            return inner
        raise self.error(
            tok,
            f"expected a polynomial in {', '.join(variables)}, found {tok.text!r}",
        )


def oracle_parse(source: str) -> ParseResult:
    tokens, diagnostics = tokenize(source)
    parser = OracleParser(tokens, diagnostics)
    parser.parse_document()
    return ParseResult(parser.document, parser.diagnostics)


def poly_terms(parser_class, source: str, variables: tuple[str, ...]):
    """The terms of one polynomial expression read by ``parser_class``, or
    the text of the diagnostic that ends it."""
    tokens, diagnostics = tokenize(source)
    parser = parser_class(tokens, diagnostics)
    try:
        return parser.parse_poly(variables)
    except _Abort as abort:
        return str(abort.diagnostic)
