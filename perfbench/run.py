"""orbpairs benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload cli_corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload runs seeded rounds of ops for
``--seconds`` seconds of op time and reports the end-to-end metrics; set-up
time is the median of several fresh-interpreter probes run between rounds.  A workload whose
rounds repeat the same op shapes (``Workload.shape``) reports each shape's
best latency over the rounds; the others report every op's latency.  With
``--trace 1`` the first round is run alternately untraced and traced for
``--seconds`` seconds and the per-layer metrics of ``tracing.PER_LAYER`` are
reported, with the tracing overhead (traced minus untraced pass time).  Every op's
output is checked by the oracles in ``oracles.py`` outside the timed
section.  The last stdout line is one JSON object; the exit code is 0 only
if every op passed its oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9
PICK_EVERY_S = 1.0  # op time between two CPU picks
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class CpuPicker:
    """Pins this process to whichever allowed CPU is currently fastest.

    On a shared host other tenants slow one vCPU or both by up to 2-3x for
    seconds to minutes at a time.  Between rounds, never inside op timing, a
    fixed loop of about 2 ms is timed on each allowed CPU and the process is
    pinned to the fastest, so a run is not stuck on a vCPU whose host sibling
    is busy.  Times are still reported as measured.  It does nothing where
    affinity cannot be set or only one CPU is allowed.
    """

    def __init__(self) -> None:
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.picks: dict[str, int] = {}

    @staticmethod
    def _probe() -> float:
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            total = 0
            for i in range(20000):
                total += i * i % 7
            best = min(best, perf_counter() - start)
        return best

    def pick(self) -> None:
        if len(self.cpus) < 2:
            return
        timings = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings[cpu] = self._probe()
            best = min(timings, key=timings.get)
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = []
            return
        self.picks[str(best)] = self.picks.get(str(best), 0) + 1


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Nearest-rank latency at the highest listed percentile with at least
    ten samples beyond it: (percentile, seconds, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def setup_probe(name: str) -> float:
    """One fresh-interpreter set-up time (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(workload, op, tracer=None, op_id=0):
    """Time one op; an exception is the op's result and fails its oracle."""
    start = perf_counter()
    try:
        result = workload.run(op) if tracer is None else tracer.op(op_id, lambda: workload.run(op))
    except Exception as exc:  # the op boundary: record and keep running
        result = exc
    return perf_counter() - start, result


def check(workload, op, result) -> str | None:
    if isinstance(result, Exception):
        return f"{op.kind}: raised {type(result).__name__}: {result}"
    try:
        return workload.check(op, result)
    except Exception as exc:  # a malformed result must fail, not crash the run
        return f"{op.kind}: oracle could not read the result ({type(exc).__name__}: {exc})"


def timed_run(workload, seed: int, seconds: float, cpu: CpuPicker) -> tuple[dict, dict]:
    setup: list[float] = []
    latencies: list[float] = []
    best: dict = {}  # op shape -> its best latency, for workloads that name shapes
    errors: list[str] = []
    kept: list = []
    busy = 0.0
    picked_at = 0.0
    index = 0
    while busy < seconds:
        ops = workload.make_round(seed, index)
        if busy - picked_at >= PICK_EVERY_S:
            cpu.pick()
            picked_at = busy
        # Set-up probes are spread over the run, between rounds: a probe is
        # one short measurement, and the host's other tenants change its
        # time by up to 1.7x from one minute to the next.
        while len(setup) < SETUP_PROBES * busy / seconds:
            setup.append(setup_probe(workload.name))
        gc.collect()  # the last round's oracle garbage is not collected inside op timing
        results = []
        for op in ops:
            elapsed, result = run_op(workload, op)
            latencies.append(elapsed)
            busy += elapsed
            shape = workload.shape(op)
            if shape is not None:
                best[shape] = min(best.get(shape, math.inf), elapsed)
            results.append((op, result))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, result in results:
            err = check(workload, op, result)
            if err:
                errors.append(err)
            elif index == 0:
                kept.append((op, result))
        index += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.name))
    errors += workload.extra_checks(seed, kept)
    if best:
        # Each op shape ran once per round; its latency is its best over the
        # rounds, and the tail is the costliest shape.
        sample = list(best.values())
        ops_per_s = len(sample) / sum(sample)
        pct, tail, beyond = 100.0, max(sample), 0
    else:
        sample = latencies
        ops_per_s = len(latencies) / busy
        pct, tail, beyond = tail_latency(latencies)
    metrics = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (statistics.median(sample) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    record = {
        "rounds": index,
        "ops": len(latencies),
        "op_seconds": busy,
        "latency_sample": "best per op shape" if best else "every op",
        "tail_percentile": pct,
        "tail_samples": len(sample),
        "tail_samples_beyond": beyond,
        "setup_probes_s": setup,
        "errors": errors,
    }
    return metrics, record


def traced_run(workload, seed: int, seconds: float, out_dir: Path, cpu: CpuPicker) -> tuple[dict, dict]:
    ops = workload.make_round(seed, 0)
    trace_file = out_dir / f"trace-{workload.name}-seed{seed}.jsonl"
    trace_file.unlink(missing_ok=True)
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    errors: list[str] = []
    missing: list[str] = []
    attempted = 0

    def run_pass(tracer=None) -> float:
        nonlocal attempted
        gc.collect()
        results = [run_op(workload, op, tracer, i) for i, op in enumerate(ops)]
        attempted += len(results)
        errors.extend(e for op, (_, res) in zip(ops, results) if (e := check(workload, op, res)))
        return sum(t for t, _ in results)

    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        cpu.pick()
        untraced.append(run_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(tracer))
        finally:
            tracer.uninstall()
        missing = tracer.missing
        summaries.append(tracer.summary())
        tracer.dump(trace_file, len(summaries) - 1)
    metrics = tracing.layer_metrics(summaries)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    record = {
        "passes": len(summaries),
        "ops_per_pass": len(ops),
        "untraced_pass_s": statistics.median(untraced),
        "traced_pass_s": statistics.median(traced),
        "trace_overhead_s": overhead,
        "unwrapped": missing,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "errors": errors,
        "attempted": attempted,
    }
    return metrics, record


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another; the last
    line merges their results with metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbpairs benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbpairs" / "__init__.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'orbpairs'}; run from a source checkout")
    if not (ROOT / "tests" / "golden").is_dir() or not (ROOT / "specs").is_dir():
        return fail("the golden corpus (tests/golden, specs) is missing from this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))

    cpu = CpuPicker()
    try:
        cpu.pick()
        if not args.trace:
            setup_probe(workload.name)  # discarded: byte-code compilation in a new checkout
        workload.load()
        import orbpairs

        if Path(orbpairs.__file__).resolve().parent != ROOT / "src" / "orbpairs":
            return fail(f"orbpairs was imported from {orbpairs.__file__}, not from this checkout")
        workload.warmup()
    except Exception as exc:
        return fail(f"set-up failed: {type(exc).__name__}: {exc}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, record = traced_run(workload, args.seed, args.seconds, out_dir, cpu)
        attempted = record.pop("attempted")
    else:
        metrics, record = timed_run(workload, args.seed, args.seconds, cpu)
        attempted = record["ops"]
    failed = min(len(record["errors"]), attempted)
    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_picks": cpu.picks,
        "load": "closed loop, one client, one thread",
        "fail_ratio": failed / attempted,
        "excluded_inputs": design["workloads"][workload.name].get("excluded_inputs", []),
    })
    record["errors"] = record["errors"][:20]
    (out_dir / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} fail_ratio = {record['fail_ratio']:.6g} ({failed}/{attempted})")
    for err in record["errors"]:
        print(f"FAILED: {err}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
