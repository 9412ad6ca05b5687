import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fraction_poly_oracle import OracleParser, oracle_parse, poly_terms
from orbpairs.curveclass import CurveOrbifold
from orbpairs.orbcore import INFINITY, Multiplicity, OrbifoldDivisor
from orbpairs.specparse import Diagnostic, Token, _Parser, format_document, parse, tokenize
from text_layer_reference import tokenize as reference_tokenize
from timeguard import time_guard

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
GOLDEN_DIAGNOSTICS = Path(__file__).resolve().parent / "golden" / "diagnostics.json"
GOLDEN_PRINTED = Path(__file__).resolve().parent / "golden" / "printed"


class TestBasicDeclarations:
    def test_curve(self):
        result = parse("curve c { genus 0; point P mult 2; point Q mult 3; point R mult 7; }")
        assert result.ok
        curve = result.document.curves["c"]
        assert curve == CurveOrbifold(0, OrbifoldDivisor({"P": 2, "Q": 3, "R": 7}))

    def test_rational_and_infinite_multiplicities(self):
        result = parse("curve c { genus 1; point P mult 3/2; point Q mult inf; }")
        assert result.ok
        marks = result.document.curves["c"].marks
        assert marks.multiplicity("P") == Multiplicity(Fraction(3, 2))
        assert marks.multiplicity("Q") == INFINITY

    def test_plane_with_forms(self):
        result = parse(
            "plane f { component L1 degree 1 mult 3 form x0;"
            " component C degree 2 mult 5 form x0*x2-x1^2; }"
        )
        assert result.ok
        decl = result.document.planes["f"]
        assert [c.label for c in decl.pair.components] == ["L1", "C"]
        assert decl.forms["C"].degree == 2

    def test_fibration_twostage_morphism(self):
        result = parse(
            "fibration g { over D { part t 2 mult 1; part t 3 mult inf; } }"
            " twostage ts { lower F { s 4 -> D; } upper = g; }"
            " morphism m { pair E D t 2; dX { D mult 2; } dY { E mult 4; } }"
        )
        assert result.ok
        assert result.document.fibrations["g"].components("D")[1].multiplicity == INFINITY
        assert result.document.twostages["ts"].upper_name == "g"
        assert result.document.morphisms["m"].delta_y.multiplicity("E") == Multiplicity(4)

    def test_paramcurve_and_mordell(self):
        result = parse(
            "paramcurve conic { x0 = s^2; x1 = s*u; x2 = u^2; }"
            " mordell m { p 2; q 3; r 7; }"
        )
        assert result.ok
        assert result.document.paramcurves["conic"].degree == 2
        assert result.document.mordells["m"].r == 7

    def test_polynomial_syntax(self):
        result = parse("paramcurve c { x0 = (s+u)^2 - 2*s*u; x1 = 1/2*s^2 + 1/2*u^2; x2 = s*u; }")
        assert result.ok
        curve = result.document.paramcurves["c"]
        # (s+u)^2 - 2su = s^2 + u^2
        assert curve.x0.coeffs == (Fraction(1), Fraction(0), Fraction(1))
        assert curve.x1.coeffs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))


class TestDiagnostics:
    def diagnostics_of(self, source) -> list[Diagnostic]:
        return parse(source).diagnostics

    def test_multiplicity_below_one(self):
        diags = self.diagnostics_of("curve c { genus 0; point P mult 1/2; }")
        assert any("below 1" in d.message for d in diags)

    def test_spans_point_into_source(self):
        source = "curve c { genus 0;\n  point P mult 1/2;\n}"
        diags = self.diagnostics_of(source)
        (diag,) = [d for d in diags if "below 1" in d.message]
        lines = source.splitlines()
        assert lines[diag.line - 1][diag.col - 1] == "1"

    def test_error_recovery_keeps_later_statements(self):
        result = parse("curve c { genus 0; point P mult 1/2; point Q mult 3; }")
        assert not result.ok
        assert result.document.curves["c"].marks.multiplicity("Q") == Multiplicity(3)

    def test_error_recovery_keeps_later_declarations(self):
        result = parse(
            "curve broken { genus 0; point P mult }\n"
            "curve fine { genus 1; }"
        )
        assert not result.ok
        assert "fine" in result.document.curves

    def test_unknown_upper_reference(self):
        result = parse("twostage ts { lower F { s 1 -> D; } upper = nowhere; }")
        assert not result.ok
        assert any("nowhere" in d.message for d in result.diagnostics)

    def test_duplicate_names(self):
        result = parse("curve a { genus 0; } mordell a { p 2; q 2; r 2; }")
        assert not result.ok
        assert any("duplicate declaration" in d.message for d in result.diagnostics)

    def test_non_homogeneous_polynomial(self):
        result = parse("paramcurve c { x0 = s^2 + u; x1 = s*u; x2 = u^2; }")
        assert not result.ok
        assert any("homogeneous" in d.message for d in result.diagnostics)
        # recovery must not swallow the statements after the bad one
        assert sum("missing" in d.message for d in result.diagnostics) == 1
        assert all("x1" not in d.message for d in result.diagnostics)

    def test_decimal_literal_rejected(self):
        result = parse("curve c { genus 0; point P mult 0.5; }")
        assert not result.ok

    def test_form_degree_mismatch(self):
        result = parse("plane f { component L degree 2 mult 2 form x0; }")
        assert not result.ok
        assert any("does not match" in d.message for d in result.diagnostics)

    def test_mordell_range(self):
        result = parse("mordell m { p 1; q 3; r 7; }")
        assert not result.ok

    @staticmethod
    def nested(depth: int) -> str:
        return (
            "paramcurve c { x0 = " + "(" * depth + "s" + ")" * depth + "; x1 = u; x2 = s+u; }\n"
            "paramcurve d { x0 = s; x1 = u; x2 = u; }"
        )

    def test_nesting_depth_limit(self):
        # deep nesting is a spanned diagnostic, never a RecursionError
        assert parse(self.nested(100)).ok
        for depth in (101, 3000):
            source = self.nested(depth)
            result = parse(source)
            assert not result.ok
            (diag,) = [d for d in result.diagnostics if "nested deeper" in d.message]
            assert source[diag.col - 1] == "(" and diag.col == 21 + 100
            assert "d" in result.document.paramcurves

    @pytest.mark.parametrize(
        "source,expected",
        [
            (
                "curve c { genus 0; point P mult 2; { P mult 3; }",
                ["1:36: error: expected 'genus' or 'point', found '{'",
                 "1:49: error: expected rbrace, found ''"],
            ),
            (
                "curve c { genus { ; point P mult 2; }",
                ["1:17: error: expected genus, found '{'", "1:38: error: expected rbrace, found ''"],
            ),
            (
                "morphism m { pair E D t 2; dX { D mult 2; } dX { D mult 3; } }",
                ["1:45: error: duplicate block dX"],
            ),
            (
                "fibration g { over D { part t 1 mult 2; } over D { part t 1 mult 2; } }",
                ["1:43: error: duplicate base divisor 'D'"],
            ),
        ],
    )
    def test_recovery_skips_brace_blocks(self, source, expected):
        # recovery that stops at '{' used to retry the same token forever
        with time_guard(5):
            result = parse(source)
        assert [str(d) for d in result.diagnostics] == expected

    @given(st.lists(st.tuples(st.sampled_from("PQR"), st.integers(0, 3)), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_one_diagnostic_per_bad_point(self, points):
        # a point fails on 'mult 0' before its ';' and on a repeated label
        # after it; neither may swallow the statement on the next line
        source = "curve c { genus 0;\n" + "".join(f"point {lbl} mult {m};\n" for lbl, m in points) + "}"
        kept: dict[str, int] = {}
        bad_lines = []
        for line, (lbl, m) in enumerate(points, start=2):
            if m == 0 or lbl in kept:
                bad_lines.append(line)
            else:
                kept[lbl] = m
        with time_guard(5):
            result = parse(source)
        assert [d.line for d in result.diagnostics] == bad_lines
        marks = result.document.curves["c"].marks
        assert {lbl: marks.multiplicity(lbl) for lbl in kept} == {
            lbl: Multiplicity(m) for lbl, m in kept.items()
        }

    def test_recovery_keeps_the_first_block(self):
        with time_guard(5):
            result = parse("morphism m { pair E D t 2; dX { D mult 2; } dX { D mult 3; } }")
        assert result.document.morphisms["m"].delta_x == OrbifoldDivisor({"D": 2})

    def test_pair_error_is_reported_at_the_name(self):
        # used to escape parse() as a bare DomainError, losing the other diagnostics
        result = parse("morphism m { pair E D t 0; }\ncurve c { genus 0; point P mult 0; }")
        assert [str(d) for d in result.diagnostics] == [
            "1:10: error: pullback coefficient must be a positive integer, got 0",
            "2:33: error: multiplicity 0 is below 1",
        ]

    @pytest.mark.parametrize(
        "source,message",
        [
            ("curve a { point P mult 2; }", "1:7: error: curve 'a' has no genus"),
            ("fibration a { over D { part t 0 mult 2; } }",
             "1:11: error: fiber coefficient must be a positive integer, got 0"),
            ("morphism a { pair E D t 0; }",
             "1:10: error: pullback coefficient must be a positive integer, got 0"),
            ("paramcurve a { x0 = s^2; x1 = s*u; x2 = s*u; }",
             "1:12: error: parametrization has the common factor s; remove base points"),
            ("mordell a { p 1; q 3; r 7; }", "1:9: error: p must be an integer >= 2, got 1"),
            ("twostage a { lower F { s 1 -> D; } }",
             "1:10: error: twostage 'a' has no upper fibration"),
            ("twostage a { lower F { s 1 -> D; } upper = nope; }",
             "1:10: error: unknown upper fibration 'nope'"),
        ],
        ids=["curve", "fibration", "morphism", "paramcurve", "mordell", "no-upper", "unknown-upper"],
    )
    def test_refused_declaration_keeps_the_next(self, source, message):
        result = parse(source + "\ncurve z { genus 1; }")
        assert [str(d) for d in result.diagnostics] == [message]
        assert result.document.curves["z"] == CurveOrbifold(1, OrbifoldDivisor({}))
        assert not any("a" in table for table in vars(result.document).values())

    @pytest.mark.parametrize(
        "source,filed",
        [
            ("curve c { genus 0; point P mult 2;\ncurve d { genus 1; point Q mult 0; }",
             {"curves": ["d"]}),
            ("plane f { component L degree 1 mult 2 form x0;\nmordell m { p 2; q 3; r 7; }\n"
             "curve d { genus 1; }", {"curves": ["d"], "mordells": ["m"]}),
            ("fibration g { over D { part t 1 mult 2;\ncurve c { genus 0; }", {"curves": ["c"]}),
            ("twostage ts { lower F { s 1 -> D;\nfibration g { over D { part t 1 mult 2; } }",
             {"fibrations": ["g"]}),
            ("morphism m { dX { D mult 2;\ncurve c { genus 0; }", {"curves": ["c"]}),
            ("curve c { genus x\ncurve d { genus 1; }", {"curves": ["d"]}),
            ("curve c { genus 0; pint { P mult 2;\ncurve d { genus 1; }", {"curves": ["d"]}),
        ],
        ids=["curve", "plane", "over", "lower", "marks", "statement", "skipped-block"],
    )
    def test_missing_brace_keeps_the_next_declaration(self, source, filed):
        # the body left open ends where the next declaration starts, on line
        # 2, and only the declarations from there on are filed
        result = parse(source)
        kind = source.split("\n")[1].split()[0]
        assert f"2:1: error: expected rbrace, found {kind!r}" in map(str, result.diagnostics)
        document = {kind: list(table) for kind, table in vars(result.document).items() if table}
        assert document == filed

    @pytest.mark.parametrize(
        "source",
        [
            "morphism m { dX { curve mult 2; } dY { mordell mult 3; } }",
            "curve curve { genus 0; point point mult 2; }",
        ],
    )
    def test_identifiers_spelled_like_kinds(self, source):
        # a declaration starts at <kind> <name> {, which no legal body holds
        first = parse(source)
        assert first.ok, first.diagnostics
        printed = format_document(first.document)
        second = parse(printed)
        assert second.ok and second.document == first.document
        assert format_document(second.document) == printed

    @pytest.mark.parametrize(
        "source,col",
        [
            ("curve c {{ genus {}; }}", 17),
            ("curve c {{ genus 0; point P mult 3/{}; }}", 35),
            ("paramcurve c {{ x0 = {}*s; x1 = u; x2 = s; }}", 21),
            ("paramcurve c {{ x0 = s^{}; x1 = u; x2 = s; }}", 23),
            ("plane f {{ component L degree {} mult 2; }}", 30),
        ],
    )
    def test_overlong_integer_literal(self, source, col):
        # past the interpreter's 4300-digit int conversion limit
        result = parse(source.format("1" * 5000))
        assert str(result.diagnostics[0]) == f"1:{col}: error: cannot read the 5000-digit integer literal"

    @pytest.mark.parametrize(
        "poly,expected",
        [
            ("(s+u)^100000", "1:26: error: exponent exceeds the limit of 1000"),
            ("9^99999999*s", "1:22: error: exponent exceeds the limit of 1000"),
            ("(s^40)^40", "1:27: error: polynomial degree 1600 exceeds the limit of 1000"),
            ("s^600*u^600", "1:26: error: polynomial degree 1200 exceeds the limit of 1000"),
            ("s^500*s^500*s", "1:32: error: polynomial degree 1001 exceeds the limit of 1000"),
        ],
    )
    def test_degree_cap(self, poly, expected):
        with time_guard(5):
            result = parse(f"paramcurve c {{ x0 = {poly}; x1 = u; x2 = s; }}")
        assert [str(d) for d in result.diagnostics] == [
            expected, "1:12: error: paramcurve 'c' is missing x0"
        ]

    @pytest.mark.parametrize(
        "poly,expected",
        [
            ("(10^1000)^5*s + u", "1:30: error: coefficient exceeds the limit of 4300 digits"),
            ("(10^1000)^3*(10^1000)^2*s", "1:32: error: coefficient exceeds the limit of 4300 digits"),
            (f"1/{10**4299 + 7}*s - 1/{10**4299 + 9}*s",
             "1:4326: error: coefficient exceeds the limit of 4300 digits"),
        ],
    )
    def test_coefficient_cap(self, poly, expected):
        # a longer coefficient used to parse and then fail to print
        result = parse(f"paramcurve c {{ x0 = {poly}; x1 = u; x2 = s; }}")
        assert [str(d) for d in result.diagnostics] == [
            expected, "1:12: error: paramcurve 'c' is missing x0"
        ]

    def test_coefficients_at_the_cap(self):
        longest = "9" * 4300
        result = parse(f"paramcurve c {{ x0 = {longest}*s + (10^1000)^4*u; x1 = u; x2 = s; }}")
        assert result.ok
        assert result.document.paramcurves["c"].x0.coeffs == (10**4000, int(longest))

    def test_power_by_squaring_matches_repeated_products(self):
        squared = parse("paramcurve c { x0 = (2/3*s - 5*u)^13; x1 = u^13; x2 = s^13; }")
        repeated = parse(
            "paramcurve c { x0 = " + "*".join(["(2/3*s - 5*u)"] * 13) + "; x1 = u^13; x2 = s^13; }"
        )
        assert squared.ok and squared.document == repeated.document

    def test_degree_at_the_cap(self):
        result = parse("paramcurve c { x0 = s^1000; x1 = s^500*u^500; x2 = u^1000; }")
        assert result.ok
        assert result.document.paramcurves["c"].degree == 1000

    def test_field_without_semicolon_is_missing(self):
        # as for paramcurve coordinates, a field counts only once its
        # statement has parsed completely
        result = parse("mordell m { p 2 q 3; r 7; }")
        assert [str(d) for d in result.diagnostics] == [
            "1:17: error: expected semi, found 'q'",
            "1:9: error: mordell 'm' is missing p, q",
        ]

    def test_long_unary_minus_chain(self):
        result = parse("paramcurve c { x0 = " + "-" * 5001 + "s; x1 = u; x2 = s+u; }")
        plain = parse("paramcurve c { x0 = -s; x1 = u; x2 = s+u; }")
        assert result.ok
        assert result.document == plain.document


    def test_binomial_power_at_the_cap_is_fast(self):
        with time_guard(1):
            result = parse("paramcurve c { x0 = (s+u)^1000; x1 = u^1000; x2 = s^1000; }")
        assert result.ok
        coeffs = result.document.paramcurves["c"].x0.coeffs
        assert coeffs[:3] == (1, 1000, 499500) and coeffs == coeffs[::-1]

    @pytest.mark.parametrize(
        "head,entry",
        [
            ("curve c { genus 0;", "point P{} mult 2;"),
            ("plane f {", "component L{} degree 1 mult 2;"),
            ("morphism m { dY {", "E{} mult 2;"),
        ],
    )
    def test_many_labels_parse_in_linear_time(self, head, entry):
        # each label is looked up by key, not by a scan of the labels before it
        body = " ".join(entry.format(i) for i in range(20000))
        source = f"{head} {body}" + " }" * head.count("{")
        with time_guard(4):
            result = parse(source)
        assert result.ok
        assert format_document(result.document).count(" mult 2;") == 20000


def poly_expressions(variables):
    """Polynomial expressions in ``variables``: integer and a/b literals, a
    literal long enough that a few products pass the coefficient cap, a
    power high enough that a few products pass the degree cap, + - * ^,
    unary minus and parentheses.  Exponents include 0 and one past the
    exponent cap; the rest stay small, so the Fraction oracle stays fast."""
    literal = st.one_of(
        st.integers(0, 10**6).map(str),
        st.tuples(st.integers(0, 99), st.integers(0, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
        st.just("9" * 1500),
    )
    atom = st.one_of(literal, st.sampled_from(variables), st.just(f"{variables[0]}^600"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, st.sampled_from([0, 1, 2, 3, 1001])).map(
                lambda t: f"({t[0]})^{t[1]}"
            ),
        )

    return st.recursive(atom, extend, max_leaves=8)


class TestPolynomialOracle:
    """The integer-keyed evaluator against the former Fraction one."""

    @given(st.sampled_from([("s", "u"), ("x0", "x1", "x2")]).flatmap(
        lambda vs: st.tuples(st.just(vs), poly_expressions(vs))
    ))
    @settings(max_examples=200, deadline=None)
    def test_terms_match(self, case):
        variables, expr = case
        with time_guard(10):
            expected = poly_terms(OracleParser, expr, variables)
            got = poly_terms(_Parser, expr, variables)
        assert got == expected
        if isinstance(got, dict) and "/" not in expr:
            assert all(type(c) is int for c in got.values())

    @given(poly_expressions(("s", "u")), poly_expressions(("x0", "x1", "x2")))
    @settings(max_examples=150, deadline=None)
    def test_documents_and_diagnostics_match(self, param, form):
        source = (
            f"paramcurve c {{ x0 = {param}; x1 = u^2; x2 = s^2; }}\n"
            f"plane f {{ component C degree 2 mult 3 form {form}; }}\n"
        )
        with time_guard(10):
            expected = oracle_parse(source)
            got = parse(source)
        assert [str(d) for d in got.diagnostics] == [str(d) for d in expected.diagnostics]
        assert got.document == expected.document


class TestPrecedence:
    """Edge cases of the expression grammar, each read alone and as a
    coordinate: ``-`` binds looser than ``^``, a unary ``-`` may follow
    ``-`` or ``*``, ``^`` does not chain, and the exponent and nesting
    limits are reported at the same token."""

    NESTED_101 = "(" * 101 + "s" + ")" * 101

    @pytest.mark.parametrize("expr,terms,diagnostics", [
        ("-s^2", {(2, 0): -1}, []),
        ("--s", {(1, 0): 1}, ["1:12: error: coordinate degrees differ: [1, 2]"]),
        ("2*-s", {(1, 0): -2}, ["1:12: error: coordinate degrees differ: [1, 2]"]),
        ("(-s)^2", {(2, 0): 1}, []),
        ("s^2^3", {(2, 0): 1},
         ["1:24: error: expected semi, found '^'", "1:12: error: paramcurve 'c' is missing x0"]),
        ("s^1001", "1:2: error: exponent exceeds the limit of 1000",
         ["1:22: error: exponent exceeds the limit of 1000",
          "1:12: error: paramcurve 'c' is missing x0"]),
        (NESTED_101, "1:101: error: parentheses nested deeper than 100 levels",
         ["1:121: error: parentheses nested deeper than 100 levels",
          "1:12: error: paramcurve 'c' is missing x0"]),
        ("(" * 100 + "s" + ")" * 100, {(1, 0): 1},
         ["1:12: error: coordinate degrees differ: [1, 2]"]),
        ("2*-(u-s)^2*-1/2", {(0, 2): 1, (1, 1): -2, (2, 0): 1}, []),
        ("s*u^999*s", "1:8: error: polynomial degree 1001 exceeds the limit of 1000",
         ["1:28: error: polynomial degree 1001 exceeds the limit of 1000",
          "1:12: error: paramcurve 'c' is missing x0"]),
    ], ids=lambda v: v[:12] if isinstance(v, str) else None)
    def test_terms_and_diagnostics(self, expr, terms, diagnostics):
        assert poly_terms(_Parser, expr, ("s", "u")) == terms
        assert poly_terms(OracleParser, expr, ("s", "u")) == terms
        result = parse(f"paramcurve c {{ x0 = {expr}; x1 = u^2; x2 = s^2; }}")
        assert [str(d) for d in result.diagnostics] == diagnostics


class TestGoldenDiagnostics:
    def test_matches_golden(self):
        # tests/golden/diagnostics.json maps malformed specs to the exact
        # diagnostics they produce, at least one for every message
        expected = GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8")
        actual = {src: [str(d) for d in parse(src).diagnostics] for src in json.loads(expected)}
        assert json.dumps(actual, indent=2) + "\n" == expected


class TestRoundTrip:
    def test_shipped_corpus(self):
        spec_files = sorted(SPEC_DIR.glob("*.orb"))
        assert spec_files, "spec corpus is missing"
        for path in spec_files:
            first = parse(path.read_text(encoding="utf-8"))
            assert first.ok, (path, first.diagnostics)
            printed = format_document(first.document)
            second = parse(printed)
            assert second.ok, (path, second.diagnostics)
            assert second.document == first.document, path
            assert format_document(second.document) == printed, path

    def test_round_trip_preserves_rationals_and_infinity(self):
        source = (
            "curve c { genus 2; point A mult 7/3; point B mult inf; }\n"
            "fibration g { over D { part t 2 mult 5/4; } }\n"
        )
        first = parse(source)
        assert first.ok
        printed = format_document(first.document)
        second = parse(printed)
        assert second.ok and second.document == first.document


def assert_tokenizes_as_reference(source):
    tokens, diagnostics = tokenize(source)
    expected_tokens, expected_diagnostics = reference_tokenize(source)
    assert diagnostics == expected_diagnostics
    last_line = source.rsplit("\n", 1)[-1]
    if "#" in last_line:
        # the reference gave the EOF token after a trailing comment the
        # column of the '#'
        eof, expected_eof = tokens.pop(), expected_tokens.pop()
        assert (eof.kind, eof.line, eof.col) == ("EOF", expected_eof.line, len(last_line) + 1)
    assert tokens == expected_tokens


class TestTokenizer:
    # every symbol, the arrow and its '>', whitespace, comments, digits
    # (including a superscript digit and '٣', a decimal digit outside ASCII),
    # identifiers (including a non-ASCII letter) and characters that are no
    # token ('Ⅻ' and '½' are numeric but neither digits nor letters)
    SOUP = [
        "\n", "\t", "\r", " ", "#", "->", ">", *"{};=/*^+-()",
        "0", "7", "42", "٣", "a", "x0", "_", "curve", "inf", "²", "é", "Ⅻ", "½", "@", ".",
    ]

    @given(st.lists(st.sampled_from(SOUP), max_size=40).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, source):
        assert_tokenizes_as_reference(source)

    def test_every_shipped_and_golden_source_matches_reference(self):
        sources = [path.read_text(encoding="utf-8") for path in sorted(SPEC_DIR.glob("*.orb"))]
        sources += json.loads(GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8"))
        sources += [path.read_text(encoding="utf-8") for path in sorted(GOLDEN_PRINTED.glob("*.txt"))]
        for source in sources:
            assert_tokenizes_as_reference(source)

    def test_eof_column_after_trailing_comment(self):
        tokens, _ = tokenize("curve c { genus 0; # note")
        assert tokens[-1] == Token("EOF", "", 1, 26)
        assert [str(d) for d in parse("curve c { genus 0; # note").diagnostics] == [
            "1:26: error: expected rbrace, found ''"
        ]


# a document with every kind of block, statement and form term
EVERY_BLOCK = """\
curve c { genus 2; point A mult 7/3; point B mult inf; }
curve bare { genus 1; }
plane f { component C degree 2 mult 3 form -x0^2 + 1/2*x1*x2 - x2^2; component L degree 1 mult inf; }
fibration g { over D { part t 2 mult 5/4; part t 1 mult inf; } over E { part t 3 mult 2; } }
twostage h { lower F { s 2 -> D; s 1 -> E; } upper = g; }
morphism m { pair E D t 2; pair F D t 1; dX { D mult 3; } dY { E mult 2; F mult inf; } }
morphism plain { pair E D t 1; }
paramcurve pc { x0 = -s^2 + 3/2*s*u; x1 = 0; x2 = u^2 - 7*s^2; }
mordell t { p 2; q 3; r 7; }
"""

PRINTED_SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SPEC_DIR.glob("*.orb"))}
PRINTED_SOURCES["every_block"] = EVERY_BLOCK


class TestPrintedDocuments:
    """format_document's output, byte for byte, for every shipped spec file
    and one document with every block."""

    @pytest.mark.parametrize("name", sorted(PRINTED_SOURCES))
    def test_matches_golden(self, name):
        result = parse(PRINTED_SOURCES[name])
        assert result.ok, result.diagnostics
        expected = (GOLDEN_PRINTED / f"{name}.txt").read_text(encoding="utf-8")
        assert format_document(result.document) == expected
