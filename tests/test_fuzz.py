"""Fuzzing the spec parser and the command line.

Every input must end as an answer (exit 0), a domain error (exit 1) or a
spanned parse diagnostic (exit 2): never a traceback and never a hang.  Each
example runs under a time guard, so a hang fails the test instead of
stalling the suite.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from orbpairs.cli import COMMANDS, main
from orbpairs.specparse import parse
from timeguard import time_guard

SPECS = Path(__file__).resolve().parent.parent / "specs"

KEYWORDS = [
    "curve", "plane", "fibration", "twostage", "morphism", "paramcurve", "mordell",
    "genus", "point", "mult", "inf", "component", "degree", "form", "over", "part", "t",
    "lower", "upper", "s", "pair", "dX", "dY", "x0", "x1", "x2", "p", "q", "r", "u",
]
WORDS = KEYWORDS + [
    "c", "D", "E", "g", "{", "}", ";", "=", "/", "*", "^", "+", "-", "(", ")", "->", "#",
    "0", "1", "2", "3", "7", "24", "1/2", "3/0", "99999999", "1" * 5000, "@", "²", "0.5",
]


def soup(words):
    return st.lists(st.sampled_from(words), max_size=60).map(" ".join)


# declaration-shaped soup reaches the statement handlers more often
DECLARATION = st.builds(
    "{} n {{ {} }}".format,
    st.sampled_from(KEYWORDS[:7]),
    soup(WORDS),
)


@given(st.one_of(soup(WORDS), DECLARATION, st.lists(DECLARATION, max_size=4).map("\n".join), st.text()))
@settings(max_examples=400, deadline=None)
@example("curve c { genus 0; point P mult 2;\ncurve d { genus 1; point Q mult 0; }")
def test_parse_always_returns(source):
    with time_guard(2):
        result = parse(source)
    assert all(str(d).startswith(f"{d.line}:{d.col}: error: ") for d in result.diagnostics)


VALUES = [
    "n", "c", "L", "pencil12", "chain", "doublecover", "gt237", "search273", "fano3357",
    "lines234", "node234", "nodeline", "twologlines", "inf", "gcd", "classical", "Z", "Q",
    "plus", "minus", "0", "1", "2", "3", "-1", "9", "10", "105", "2,2", "2,x",
    "2,2,2,2,2,2,2,2,2", "1000000000000000", "1" * 5000,
]
FLAGS = ["-f", "/nonexistent.orb", "--json", "--help", "--mode", "--against", "--variant",
         "--max-a", "--max-b", "--max", "--sign", "--p", "--q", "--limit", "--density",
         "--mults", "--extra", "--degree"]
SPEC_TEXTS = [path.read_text(encoding="utf-8") for path in sorted(SPECS.glob("*.orb"))] + [
    # a coefficient too long to print, built by ^ from short literals
    "plane L { component A degree 1 mult 2 form x0; }\n"
    "paramcurve c { x0 = (10^1000)^5*s + u; x1 = s; x2 = u; }\n",
]


@st.composite
def command_lines(draw):
    """A command with values for its arguments, then a few random words;
    an unstructured word list would rarely get past argparse."""
    name, _, _, arguments = draw(st.sampled_from(COMMANDS))
    argv = [name]
    for flags, options in arguments:
        if flags[0].startswith("-"):
            if not options.get("required") and draw(st.booleans()):
                continue
            argv.append(flags[0])
        if options.get("action") != "store_true":
            argv.append(draw(st.sampled_from(VALUES)))
    return argv + draw(st.lists(st.sampled_from(FLAGS + VALUES), max_size=3))


@given(
    st.one_of(st.sampled_from(SPEC_TEXTS), st.lists(DECLARATION, max_size=3).map("\n".join)),
    st.one_of(command_lines(), st.lists(st.sampled_from(FLAGS + VALUES), max_size=8)),
)
@settings(max_examples=300, deadline=None)
# a root index of 10^15: the Newton step raised 2 to the power 10^15 - 1
@example(SPEC_TEXTS[0], ["pfull", "--p", "1000000000000000", "--limit", "1000000000000000", "--density"])
# enumerations past the sieve bound, refused before any work
@example(SPEC_TEXTS[0], ["pfull", "--p", "2", "--limit", "1000000000000000"])
@example(
    (SPECS / "mordell_triples.orb").read_text(encoding="utf-8"),
    ["mordell-search", "gt237", "--max-a", "1000000000000000", "--max-b", "100"],
)
@example(
    (SPECS / "mordell_triples.orb").read_text(encoding="utf-8"),
    ["mordell-classical", "gt237", "--max", "1000000000000000"],
)
# four pairs, each a root of a number of 10^8 bits
@example("mordell big { p 99999999; q 2; r 3; }\n", ["mordell-classical", "big", "--max", "2"])
# a sieve to 10^5 that makes 5.5 * 10^6 values, stopped as they are made
@example(SPEC_TEXTS[0], ["pfull", "--p", "8", "--limit", "1" + "0" * 40])
# a squarefree decomposition of a degree-200 pullback with 550-bit coefficients
@example(
    "paramcurve c { x0 = (s+2*u)^40; x1 = (s-3*u)^40; x2 = (2*s+5*u)^40; }\n"
    "plane L { component F degree 5 mult 2 form x0^5 + x1^5 - x2^5 + x0*x1*x2^3; }\n",
    ["restrict", "c", "--against", "L"],
)
def test_main_exits_0_1_or_2(spec, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.orb"
        path.write_text(spec, encoding="utf-8")
        with time_guard(5), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(["-f", str(path), *argv])
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2)
