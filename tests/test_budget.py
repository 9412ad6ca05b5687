"""The one step budget: every enumeration passes its own step estimate to
``orbcore.require_steps``, which refuses more than ``orbcore.MAX_STEPS``."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from orbpairs import mordell, orbcore, symdiff
from orbpairs.mordell import OrbifoldP1Triple, enumerate_p_full, search_classical, search_points
from orbpairs.orbcore import MAX_STEPS, DomainError, require_steps
from orbpairs.symdiff import check_positive_floor, check_relative_exponent_bounds
from timeguard import time_guard

SRC = Path(__file__).resolve().parent.parent / "src" / "orbpairs"


class Estimated(Exception):
    pass


def estimate(monkeypatch, module, prefix, call):
    """The steps that ``call`` passes to require_steps with a description
    starting with ``prefix``; the call stops there, before that work."""

    def record(steps, what):
        if what.startswith(prefix):
            raise Estimated(steps)
        require_steps(steps, what)

    monkeypatch.setattr(module, "require_steps", record)
    with pytest.raises(Estimated) as info:
        call()
    return info.value.args[0]


# (module, description prefix, call at the bound, its steps, call past it, its steps)
BOUNDARIES = [
    # 33 steps per sieve root: 1,242,424 and 1,242,425
    (
        mordell, "enumerating",
        lambda: enumerate_p_full(1242424**2, 2), 40_999_992,
        lambda: enumerate_p_full(1242425**2, 2), 41_000_025,
    ),
    # 4 steps per pair: 4100 2-full a-values (the 4100th is 3976200) and
    # 2500 b-values (the 2500th is 1507984), then one more a-value
    (
        mordell, "a search over",
        lambda: search_points(OrbifoldP1Triple(2, 3, 2), 3976200, 1507984), 41_000_000,
        lambda: search_points(OrbifoldP1Triple(2, 3, 2), 3980025, 1507984), 41_010_000,
    ),
    # 30 + 70 // 6 = 41 steps per pair: beta^7 has 70 bits at beta <= 1000
    (
        mordell, "a classical search",
        lambda: search_classical(OrbifoldP1Triple(2, 3, 7), 1000, 1000), 41_000_000,
        lambda: search_classical(OrbifoldP1Triple(2, 3, 7), 1001, 1000), 41_041_000,
    ),
    # m = 13/11 puts the threshold at N = 11
    (
        symdiff, "enumeration for",
        lambda: check_positive_floor(5, 3, [Fraction(13, 11)] * 5, extra=2), 40_320_090,
        lambda: check_positive_floor(9, 1, [2] * 9, extra=0), 42_181_425,
    ),
    (
        symdiff, "relative-exponent grid",
        lambda: check_relative_exponent_bounds(6369, 1, 2), 40_991_014,
        lambda: check_relative_exponent_bounds(6370, 1, 2), 41_003_820,
    ),
]


@pytest.mark.parametrize("module, prefix, at, at_steps, past, past_steps", BOUNDARIES)
def test_step_estimates_at_the_bound(monkeypatch, module, prefix, at, at_steps, past, past_steps):
    assert estimate(monkeypatch, module, prefix, at) == at_steps <= MAX_STEPS
    assert estimate(monkeypatch, module, prefix, past) == past_steps > MAX_STEPS
    monkeypatch.undo()
    with time_guard(1), pytest.raises(DomainError, match=f"^{prefix}.* takes more than {MAX_STEPS} steps$"):
        past()


def test_p_full_values_are_counted_as_they_are_made(monkeypatch):
    # the 14 2-full values up to 100, sieved to 10, take 10 + 32 * 14 = 458 steps
    for module in (orbcore, mordell):
        monkeypatch.setattr(module, "MAX_STEPS", 458)
    assert len(enumerate_p_full(100, 2)) == 14
    for module in (orbcore, mordell):
        monkeypatch.setattr(module, "MAX_STEPS", 457)
    with pytest.raises(DomainError, match="2-full values up to 100 takes more than 457 steps"):
        enumerate_p_full(100, 2)


def test_require_steps():
    require_steps(MAX_STEPS, "anything")
    with pytest.raises(DomainError, match=r"^a run takes more than 41000000 steps$"):
        require_steps(MAX_STEPS + 1, "a run")


def test_budget_constants_live_only_in_orbcore():
    pattern = re.compile(r"MAX.*(STEPS|PAIRS|ROOT)", re.IGNORECASE)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "orbcore.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            found += [f"{path.name}: {name}" for name in names if pattern.search(name)]
    assert found == []
