import json
from pathlib import Path

import pytest

from orbpairs.cli import main

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
        import os
        import subprocess
        import sys

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


class TestSymdiffLimitOverride:
    def test_env_override(self, monkeypatch, capsys):
        argv = ["symdiff-check", "--p", "4", "--q", "1", "--mults", "2,2,2,2", "--extra", "2"]
        monkeypatch.setenv("ORBPAIRS_SYMDIFF_LIMIT", "10")
        assert main(argv) == 1
        assert "exceeds the limit" in capsys.readouterr().err
        monkeypatch.setenv("ORBPAIRS_SYMDIFF_LIMIT", "400")
        assert main(argv) == 0
