"""Every layer that perfbench/tracing.py wraps must exist in the program.

The tracer only lists a renamed or removed target under "missing", so a
refactor that renames a traced function would silently drop its per-layer
metric.  The tracing module is read and executed here without importing it,
so no bytecode is written next to it.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    missing = []
    for _, modname, attr, _, _ in namespace["TARGETS"]:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []
