import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbpairs.cli import build_parser, main
from timeguard import time_guard

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def spec(name: str) -> str:
    return str(ROOT / "specs" / name)


CORPUS = [
    ("elliptic6_base_inf", ["-f", spec("elliptic_surface_base.orb"), "base", "elliptic6", "--mode", "inf"]),
    ("elliptic6_base_gcd", ["-f", spec("elliptic_surface_base.orb"), "base", "elliptic6", "--mode", "gcd"]),
    ("base6_classify", ["-f", spec("elliptic_surface_base.orb"), "classify", "base6"]),
    ("otherline_rational", ["-f", spec("logarithmic_curves.orb"), "rational", "otherline", "--against", "logline"]),
    ("tangentconic_rational", ["-f", spec("logarithmic_curves.orb"), "rational", "tangentconic", "--against", "logline"]),
    ("secantconic_rational", ["-f", spec("logarithmic_curves.orb"), "rational", "secantconic", "--against", "logline"]),
    ("cuspidalcubic_rational", ["-f", spec("logarithmic_curves.orb"), "rational", "cuspidalcubic", "--against", "logline"]),
    ("cubicnontangent_rational", ["-f", spec("logarithmic_curves.orb"), "rational", "cubicnontangent", "--against", "logline"]),
    ("tangentline_restrict", ["-f", spec("logarithmic_curves.orb"), "restrict", "tangentline", "--against", "logconic"]),
    ("secantline_restrict", ["-f", spec("logarithmic_curves.orb"), "restrict", "secantline", "--against", "logconic"]),
    ("node234_restrict", ["-f", spec("line_arrangements.orb"), "restrict", "node234", "--against", "lines234"]),
    ("node234_restrict_q", ["-f", spec("line_arrangements.orb"), "restrict", "node234", "--against", "lines234", "--variant", "Q"]),
    ("highnode_rational", ["-f", spec("line_arrangements.orb"), "rational", "highnode", "--against", "lines2245"]),
    ("lownode_rational", ["-f", spec("line_arrangements.orb"), "rational", "lownode", "--against", "lines2245"]),
    ("mixednode_rational", ["-f", spec("line_arrangements.orb"), "rational", "mixednode", "--against", "lines2245"]),
    ("nodeline_rational", ["-f", spec("line_arrangements.orb"), "rational", "nodeline", "--against", "twologlines"]),
    ("genericline_rational", ["-f", spec("line_arrangements.orb"), "rational", "genericline", "--against", "twologlines"]),
    ("fano3357", ["-f", spec("fano_pairs.orb"), "fano", "fano3357"]),
    ("fano23741", ["-f", spec("fano_pairs.orb"), "fano", "fano23741"]),
    ("notfano3358", ["-f", spec("fano_pairs.orb"), "fano", "notfano3358"]),
    ("familydim3357_105", ["-f", spec("fano_pairs.orb"), "familydim", "fano3357", "--degree", "105"]),
    ("familydim3357_210", ["-f", spec("fano_pairs.orb"), "familydim", "fano3357", "--degree", "210"]),
    ("familydim23741", ["-f", spec("fano_pairs.orb"), "familydim", "fano23741", "--degree", "1722"]),
    ("pencil12_inf", ["-f", spec("multiple_fibres.orb"), "base", "pencil12", "--mode", "inf"]),
    ("pencil12_gcd", ["-f", spec("multiple_fibres.orb"), "base", "pencil12", "--mode", "gcd"]),
    ("chain_compose", ["-f", spec("multiple_fibres.orb"), "compose", "chain"]),
    ("doublecover_inf", ["-f", spec("multiple_fibres.orb"), "morphism", "doublecover", "--mode", "inf"]),
    ("doublecover_classical", ["-f", spec("multiple_fibres.orb"), "morphism", "doublecover", "--mode", "classical"]),
    ("triplecover_inf", ["-f", spec("multiple_fibres.orb"), "morphism", "triplecover", "--mode", "inf"]),
    ("triplecover_classical", ["-f", spec("multiple_fibres.orb"), "morphism", "triplecover", "--mode", "classical"]),
    ("gt237_search", ["-f", spec("mordell_triples.orb"), "mordell-search", "gt237", "--max-a", "100", "--max-b", "100"]),
    ("search273", ["-f", spec("mordell_triples.orb"), "mordell-search", "search273", "--max-a", "100", "--max-b", "100"]),
    ("classical323", ["-f", spec("mordell_triples.orb"), "mordell-classical", "classical323", "--max", "10"]),
    ("pfull100", ["pfull", "--p", "2", "--limit", "100"]),
    ("symdiff_2_1_22", ["symdiff-check", "--p", "2", "--q", "1", "--mults", "2,2"]),
]


class TestGoldenCorpus:
    @pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
    def test_output_matches_golden(self, name, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert out == expected

    @pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
    def test_json_matches_golden(self, name, argv, capsys):
        # pins the JSON schema: field names, types and rendering of every command
        code = main(argv + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert out == expected


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ["-f", spec("elliptic_surface_base.orb"), "base", "elliptic6", "--mode", "inf", "--json"],
            ["-f", spec("mordell_triples.orb"), "mordell-search", "search273", "--max-a", "100", "--max-b", "100", "--json"],
            ["-f", spec("line_arrangements.orb"), "restrict", "node234", "--against", "lines234", "--json"],
            ["pfull", "--p", "2", "--limit", "1000", "--density", "--json"],
            ["symdiff-check", "--p", "3", "--q", "2", "--mults", "2,2,2", "--json"],
        ],
    )
    def test_byte_stable_and_well_formed(self, argv, capsys):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        payload = json.loads(first)
        assert "command" in payload

    def test_rationals_serialize_as_strings(self, capsys):
        assert main(["-f", spec("fano_pairs.orb"), "fano", "fano3357", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == "1/105"

    def test_byte_stable_across_hash_seeds(self):
        # map-iteration nondeterminism would show up across processes with
        # different hash randomization
        argv = [
            sys.executable, "-m", "orbpairs.cli",
            "-f", spec("line_arrangements.orb"),
            "restrict", "node234", "--against", "lines234", "--json",
        ]
        outputs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(argv, capture_output=True, env=env)
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestExitCodes:
    def test_unknown_name_is_domain_error(self, capsys):
        code = main(["-f", spec("fano_pairs.orb"), "fano", "nonexistent"])
        assert code == 1
        assert "unknown plane" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.orb"
        bad.write_text("curve c { genus 0; point P mult 1/3; }")
        code = main(["-f", str(bad), "classify", "c"])
        assert code == 2
        assert "below 1" in capsys.readouterr().err

    def test_missing_file_is_domain_error(self, capsys):
        code = main(["-f", "/nonexistent/path.orb", "classify", "c"])
        assert code == 1

    def test_undecodable_file_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "bad.orb"
        src.write_bytes(b"curve c { genus 0; } \xff\n")
        code = main(["-f", str(src), "classify", "c"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {src}: ")
        assert "can't decode byte 0xff" in err

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        source = "mordell m { p 2; q 3; r 7; }\n"
        plain, marked = tmp_path / "plain.orb", tmp_path / "marked.orb"
        plain.write_bytes(source.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + source.encode())
        outputs = []
        for path in (plain, marked):
            assert main(["-f", str(path), "mordell-classical", "m", "--max", "5"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert outputs[0].err == ""

    def test_missing_file_flag(self, capsys):
        code = main(["classify", "c"])
        assert code == 1
        assert "spec file" in capsys.readouterr().err

    def test_gcd_mode_on_infinite_component(self, tmp_path, capsys):
        src = tmp_path / "f.orb"
        src.write_text("fibration g { over D { part t 2 mult inf; } }")
        code = main(["-f", str(src), "base", "g", "--mode", "gcd"])
        assert code == 1

    def test_restrict_without_forms(self, tmp_path, capsys):
        src = tmp_path / "formless.orb"
        src.write_text(
            "plane bare { component L degree 1 mult 2; }\n"
            "paramcurve line { x0 = s; x1 = u; x2 = s+u; }\n"
        )
        code = main(["-f", str(src), "restrict", "line", "--against", "bare"])
        assert code == 1
        assert "no defining form" in capsys.readouterr().err

    def test_negative_extra_is_domain_error(self, capsys):
        code = main(["symdiff-check", "--p", "2", "--q", "1", "--mults", "2,2", "--extra", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: extra must be >= 0, got -5\n"

    def test_deep_nesting_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "deep.orb"
        src.write_text("paramcurve c { x0 = " + "(" * 3000 + "s" + ")" * 3000 + "; x1 = u; x2 = s; }")
        code = main(["-f", str(src), "restrict", "c", "--against", "L"])
        assert code == 2
        assert "nested deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source,diagnostic",
        [
            ("curve c { genus 0; point P mult 2; { P mult 3; }",
             "1:36: error: expected 'genus' or 'point', found '{'"),
            ("curve c { genus { ; point P mult 2; }", "1:17: error: expected genus, found '{'"),
            ("morphism m { pair E D t 2; dX { D mult 2; } dX { D mult 3; } }",
             "1:45: error: duplicate block dX"),
            ("fibration g { over D { part t 1 mult 2; } over D { part t 1 mult 2; } }",
             "1:43: error: duplicate base divisor 'D'"),
            ("morphism m { pair E D t 0; }",
             "1:10: error: pullback coefficient must be a positive integer, got 0"),
            ("curve c { genus " + "1" * 5000 + "; }",
             "1:17: error: cannot read the 5000-digit integer literal"),
            ("paramcurve c { x0 = (s+u)^100000; x1 = u; x2 = s; }",
             "1:26: error: exponent exceeds the limit of 1000"),
        ],
    )
    def test_bad_spec_is_a_spanned_parse_error(self, tmp_path, capsys, source, diagnostic):
        src = tmp_path / "bad.orb"
        src.write_text(source)
        with time_guard(5):
            code = main(["-f", str(src), "classify", "c"])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == f"{src}:{diagnostic}"

    def test_oversized_coefficient_is_a_parse_error(self, tmp_path, capsys):
        # used to parse, then end in a ValueError traceback from Fraction.__str__
        src = tmp_path / "big.orb"
        src.write_text(
            "plane L { component A degree 1 mult 2 form x0; }\n"
            "paramcurve c { x0 = (10^1000)^5*s + u; x1 = s; x2 = u; }\n"
        )
        code = main(["-f", str(src), "restrict", "c", "--against", "L"])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            f"{src}:2:30: error: coefficient exceeds the limit of 4300 digits"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["restrict", "rational"])
    def test_unprintable_contact_point_is_domain_error(self, tmp_path, capsys, command, json_flag):
        # a legal 4001-digit literal squares into an 8001-digit coefficient of
        # the contact point; labeling it used to end in a ValueError traceback.
        # restrict must label the point, so it refuses; rational only counts
        # the orbit's 2 points of mark 2 (canonical degree -1) and answers
        src = tmp_path / "bigpoint.orb"
        src.write_text(
            "plane L { component A degree 2 mult 2 form x0^2 + x1^2; }\n"
            f"paramcurve c {{ x0 = 1{'0' * 4000}*s + u; x1 = s; x2 = u; }}\n"
        )
        code = main(["-f", str(src), command, "c", "--against", "L", *json_flag])
        captured = capsys.readouterr()
        if command == "rational":
            assert (code, captured.err) == (0, "")
            assert captured.out == (
                '{"against": "L", "command": "rational", "name": "c", "rational": true, '
                '"variant": "Z"}\n' if json_flag else "variant=Z rational=true\n"
            )
            return
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: a degree-2 contact point has a coefficient over the limit "
            "of 4300 digits, so it cannot be labeled\n"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "source,argv",
        [
            ("curve c { genus 0; point P mult {A}; point Q mult {B}; }", ["classify", "c"]),
            ("plane f { component A degree 1 mult {A} form x0; component B degree 1 mult {B} form x1; }",
             ["fano", "f"]),
            ("fibration g { over D { part t {A} mult {B}; } }", ["base", "g"]),
            ("morphism m { pair E D t {A}; dX { D mult {B}; } dY { E mult 2; } }",
             ["morphism", "m"]),
            (None, ["familydim", "fano3357", "--degree", str(945 * 10**4297)]),
        ],
        ids=["degree", "fano", "base", "morphism", "familydim"],
    )
    def test_unprintable_result_is_domain_error(self, tmp_path, capsys, source, argv, json_flag):
        # each result has a number of 4301 to 8401 digits computed from
        # literals of 4201; rendering it used to end in a ValueError traceback
        if source is None:
            path = spec("fano_pairs.orb")
        else:
            path = tmp_path / "big.orb"
            path.write_text(source.replace("{A}", str(10**4200 + 1)).replace("{B}", str(10**4200 + 3)))
        code = main(["-f", str(path), *argv, *json_flag])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: a result has a number of more than 4300 digits\n"

    def test_overlong_mults_are_domain_error(self, capsys):
        code = main(["symdiff-check", "--p", "2", "--q", "1", "--mults", "2," + "1" * 5000])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: multiplicities must be comma-separated")

    def test_factoring_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        from orbpairs import polynomials

        def broken(f):
            raise ArithmeticError("factorization self-check failed")

        monkeypatch.setattr(polynomials, "squarefree_decomposition", broken)
        src = tmp_path / "conic.orb"
        src.write_text(
            "plane L { component A degree 1 mult 2 form x0; }\n"
            "paramcurve c { x0 = 2*s^2 + u^2; x1 = s*u; x2 = u^2; }\n"
        )
        code = main(["-f", str(src), "restrict", "c", "--against", "L"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: factorization self-check failed\n"

    def test_small_primes_dividing_leading_coefficient(self, tmp_path, capsys):
        # every odd prime up to 149 divides the leading coefficient of the
        # pullback P*s^2 + u^2, so factoring has to search past them
        from math import prod

        P = prod(p for p in range(3, 150, 2) if all(p % q for q in range(3, p, 2)))
        src = tmp_path / "bigprime.orb"
        src.write_text(
            "plane L { component A degree 1 mult 2 form x0; }\n"
            f"paramcurve c {{ x0 = {P}*s^2 + u^2; x1 = s*u; x2 = u^2; }}\n"
        )
        code = main(["-f", str(src), "restrict", "c", "--against", "L", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        result = json.loads(captured.out)
        point = f"{P}*s^2+u^2"
        assert result["marks"] == {f"{point}#1": "2", f"{point}#2": "2"}
        assert result["rational"] is True

    def test_fermat_105_along_a_line(self, tmp_path, capsys):
        # the pullback s^105 - u^105 splits into the cyclotomic forms of the
        # 8 divisors of 105, each a record whose points all get mark 2
        src = tmp_path / "fermat105.orb"
        src.write_text(
            "plane F { component C degree 105 mult 2 form x0^105 - x1^105; }\n"
            "paramcurve c { x0 = s; x1 = u; x2 = s + u; }\n"
        )
        with time_guard(10):
            code = main(["-f", str(src), "restrict", "c", "--against", "F", "--json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        marks = json.loads(captured.out)["marks"]
        points = {}
        for label, mark in marks.items():
            assert mark == "2"
            form = label.split("#")[0]
            points[form] = points.get(form, 0) + 1
        assert sorted(points.values()) == [1, 2, 4, 6, 8, 12, 24, 48]
        assert "s-u" in points and "s^2+s*u+u^2" in points

    def test_irreducible_pullback_of_degree_200(self, tmp_path, capsys):
        # the pullback is irreducible of degree 200 with coefficients of some
        # 550 bits, so the squarefree step's gcd of it and its derivative is 1
        src = tmp_path / "power40.orb"
        src.write_text(
            "paramcurve c { x0 = (s+2*u)^40; x1 = (s-3*u)^40; x2 = (2*s+5*u)^40; }\n"
            "plane L { component F degree 5 mult 2 form x0^5 + x1^5 - x2^5 + x0*x1*x2^3; }\n"
        )
        with time_guard(5):
            code = main(["-f", str(src), "restrict", "c", "--against", "L", "--json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        marks = json.loads(captured.out)["marks"]
        assert len(marks) == 200 and set(marks.values()) == {"2"}
        assert len({label.split("#")[0] for label in marks}) == 1

    def test_density_past_the_float_range(self, capsys):
        # the 400th root of 10^400 is 10, but 10^400 is not a float
        with time_guard(5):
            code = main(["pfull", "--p", "400", "--limit", "1" + "0" * 400, "--density"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("count=29272 ratio=2927.200000 ")

    def test_symdiff_count_cap(self, capsys):
        # N = 6, 7 over the 84 3-subsets of 1..9 make C(89, 6) + C(90, 7) =
        # 8,052,482,548 multi-indices; N = 18 over the 9 1-subsets makes
        # C(26, 18) = 1,562,275 of 27 steps each, 42,181,425 steps
        for q, extra, n in [("3", "1", "6..7"), ("1", "0", "18..18")]:
            argv = ["symdiff-check", "--p", "9", "--q", q, "--mults", "2,2,2,2,2,2,2,2,2", "--extra", extra]
            with time_guard(5):
                assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: enumeration for N = {n} over {q}-subsets of 1..9 "
                "takes more than 41000000 steps\n"
            )

    def test_symdiff_limit_checked_before_listing_n(self, capsys):
        with time_guard(5):
            code = main(["symdiff-check", "--p", "2", "--q", "1", "--mults", "2,2",
                         "--extra", str(10**15)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: enumeration for N = 4..1000000000000004 over 1-subsets of 1..2 "
            "takes more than 41000000 steps\n"
        )


class TestStartUp:
    """A command imports only the modules it runs, because start-up is most of
    a command's wall time.  Each case runs in a fresh interpreter and reports
    the orbpairs modules, and which of UNUSED, loaded once main has returned."""

    # dataclasses loads the other three; the value types need none of them
    UNUSED = ("dataclasses", "inspect", "ast", "dis")
    PROBE = (
        "import sys\n"
        "from orbpairs.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"unused = {UNUSED!r}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('orbpairs.') or m in unused),"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def run(self, argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], capture_output=True, text=True, env=env
        )
        modules = {
            m.removeprefix("orbpairs.") for m in result.stderr.split() if m.startswith("orbpairs.")
        }
        return result, modules

    @pytest.mark.parametrize("name,loaded,absent", [
        ("pfull100", {"mordell"}, {"specparse", "polynomials"}),
        ("symdiff_2_1_22", {"symdiff"}, {"specparse", "polynomials"}),
        ("node234_restrict", {"specparse", "curverestrict"}, {"fibration", "mordell", "symdiff"}),
        ("pencil12_inf", {"specparse", "fibration"}, {"mordell", "symdiff"}),
        # one golden command for each of the other eight commands
        ("base6_classify", {"specparse", "curveclass"}, {"mordell", "symdiff"}),
        ("fano3357", {"specparse", "planepairs"}, {"fibration", "mordell", "symdiff"}),
        ("familydim3357_105", {"specparse", "planepairs"}, {"fibration", "mordell", "symdiff"}),
        ("chain_compose", {"specparse", "fibration"}, {"mordell", "symdiff"}),
        ("doublecover_inf", {"specparse", "fibration"}, {"mordell", "symdiff"}),
        ("highnode_rational", {"specparse", "curverestrict"}, {"fibration", "mordell", "symdiff"}),
        ("gt237_search", {"specparse", "mordell"}, {"fibration", "symdiff"}),
        ("classical323", {"specparse", "mordell"}, {"fibration", "symdiff"}),
    ])
    def test_command_loads_only_its_modules(self, name, loaded, absent):
        result, modules = self.run(dict(CORPUS)[name])
        assert result.returncode == 0, result.stderr
        assert result.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert loaded <= modules
        assert absent.isdisjoint(modules)
        assert set(self.UNUSED).isdisjoint(result.stderr.split())

    def test_missing_file_flag_loads_no_parser(self):
        result, modules = self.run(["classify", "c"])
        assert result.returncode == 1
        assert "needs a spec file" in result.stderr
        assert "specparse" not in modules


class TestParserReuse:
    """main builds its parser on the first call and reuses it; a reused parser
    must answer every call exactly as a fresh one would."""

    @staticmethod
    def call(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends usage errors and --help this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_calls_are_identical_and_build_once(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        name, argv = CORPUS[10]
        sequence = [["classify"], ["--help"], argv, argv + ["--json"], ["classify"]]
        build_parser.cache_clear()
        first = [self.call(args, capsys) for args in sequence]
        second = [self.call(args, capsys) for args in sequence]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(sequence) - 1)
        assert first == second
        assert first[4] == first[0]
        code, out, err = first[0]
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: name\n")
        code, out, err = first[1]
        assert (code, err) == (0, "")
        assert out.startswith("usage: orbpairs ")
        golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert first[2] == (0, golden, "")
        golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert first[3] == (0, golden, "")

    def test_help_width_is_read_when_help_is_formatted(self, monkeypatch, capsys):
        build_parser()
        monkeypatch.setenv("COLUMNS", "40")
        narrow = self.call(["--help"], capsys)[1]
        monkeypatch.setenv("COLUMNS", "200")
        wide = self.call(["--help"], capsys)[1]
        assert len(narrow.splitlines()) > len(wide.splitlines())
