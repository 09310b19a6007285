"""laisc benchmark: one command, three closed-loop workloads with one client.

    python3 bench/run.py --workload audit-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a laisc checkout; it imports laisc from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1``
it records spans around every public laisc call and reports per-layer
metrics, scaling exponents and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs four ops of every workload
(two of them traced) with all oracles on, and exits non-zero on any problem.

The script orchestrates fresh processes: each set-up runs in its own
interpreter (so ``setup_s`` includes importing laisc), and the timed loop
runs in a worker process whose peak RSS is the workload's alone.  Inputs,
bytecode and outputs live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the orchestrator leaves no __pycache__ beside these files

import tracer as tracing  # noqa: E402 - after the bytecode switch

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("audit-large", "cli-fixture", "evidence")
SETUP_REPEATS = 5
MIN_OPS = 11  # op_tail_ms needs 10 samples beyond it
LOOP_CAP_S = 140.0
#: Host speed reference: ``calibrate()`` takes about this long on an idle
#: 2-vCPU VM with Python 3.11 (35-50 ms under load from other tenants).
CALIBRATION_REF_S = 0.040
#: Between ops, calibrate for this share of the previous op's time (at least
#: once), and scale each op by the mean of at least this many of the
#: calibrations nearest to it.  The mean, like an op's duration, integrates
#: the host's slow moments; a median reacts to them more than ops do.
CALIBRATION_SHARE = 0.1
CALIBRATION_WINDOW = 5

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_TIMED_SPANS = (
    "io.parse_landscape", "io.parse_evidence", "io.serialize_evidence", "io.read_grid", "io.write_grid",
    "io.read_activations", "io.read_prob_table", "model.fingerprint", "model.rows", "evaluation.evaluate",
    "evaluation.rollup", "evaluation.coverage", "evaluation.apply_filter", "report.render_table",
    "report.render_json", "report.render_argument_tree", "metrics.iou", "metrics.miou",
    *(f"metrics.perturb.{k}" for k in ("noise", "occlusion", "rot90", "flip", "contrast", "brightness")),
    *(f"metrics.augment.{k}" for k in ("pixel_flip", "dilate", "erode", "translate")),
    "metrics.nap_distance", "metrics.clm_flags",
)
LAYERS = ("cli", "io", "model", "evaluation", "report", "metrics")
PER_LAYER = (
    [("cli.spawn_ms", "ms", "lower")]
    + [(f"{layer}.import_ms", "ms", "lower") for layer in LAYERS]
    + [(f"{span}_ms", "ms", "lower") for span in _TIMED_SPANS]
    + [("model.lookup_us", "us", "lower"), ("evaluation.evaluate_vr_us", "us", "lower")]
    + [
        ("io.parse_evidence_records", "count", "higher"),
        ("io.read_grid_pixels", "count", "higher"),
        ("evaluation.vrs", "count", "higher"),
        ("report.bytes_out", "bytes", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [
        (f"{name}_exp", "slope", "lower")
        for name in (
            "evaluation.evaluate", "report.render_table", "report.render_json", "report.render_argument_tree",
            "io.parse_evidence", "io.read_grid", "metrics.iou", "metrics.augment.dilate",
        )
    ]
    + [
        ("trace.untraced_op_p50_ms", "ms", "lower"),
        ("trace.traced_op_p50_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
    ]
)


def child_env(pycache: Path) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(pycache),
        PYTHONHASHSEED="0",
        LAISC_NOW="2026-02-01T00:00:00Z",
    )
    return env


# --- statistics -------------------------------------------------------------------


def calibrate() -> float:
    """Wall time of a fixed pure-Python task (allocating, hashing, sorting).

    A shared virtual machine's speed drifts by tens of percent over
    seconds, so time metrics are scaled by ``CALIBRATION_REF_S`` over the
    mean of nearby calibrations: they read as wall times on a host of the
    reference speed.
    """
    start = time.perf_counter()
    rows = [(f"k{i}", i * 7919 % 1000, i / 3) for i in range(20000)]
    index = {key: value for key, value, _ in rows}
    rows.sort(key=lambda row: (row[1], row[0]))
    sum(index[key] for key, _, _ in rows[::7])
    return time.perf_counter() - start


def calibration_batch(previous_op_s: float) -> list[float]:
    batch = [calibrate()]
    while sum(batch) < CALIBRATION_SHARE * previous_op_s:
        batch.append(calibrate())
    return batch


def host_scale(calibrations: list[float]) -> float:
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def scaled_durations(durations: list[float], batches: list[list[float]]) -> list[float]:
    """Each op's wall time scaled by the calibrations nearest to it: the
    batches just before and just after it (``batches[k]`` precedes op
    ``k``), widened outwards until they hold ``CALIBRATION_WINDOW`` samples."""
    out = []
    for k, duration in enumerate(durations):
        lo, hi = k, k + 1
        sample = batches[lo] + batches[hi]
        while len(sample) < CALIBRATION_WINDOW and (lo > 0 or hi + 1 < len(batches)):
            if lo > 0:
                lo -= 1
                sample += batches[lo]
            if hi + 1 < len(batches):
                hi += 1
                sample += batches[hi]
        out.append(duration * host_scale(sample))
    return out


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its rank."""
    ordered = sorted(durations)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of an untraced run, host-speed scaled."""
    durations = scaled_durations(result["durations"], result["calibrations"])
    tail_s, _ = tail(durations)
    return {
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setups"]) * host_scale(result["setup_calibrations"]),
    }


# --- worker and set-up roles (run in fresh processes) --------------------------------


def _import_workloads():
    sys.path.insert(1, str(ROOT / "src"))
    import laisc

    if Path(laisc.__file__).resolve().parent != ROOT / "src" / "laisc":
        raise SystemExit(f"imported laisc from {laisc.__file__}, not from this checkout")
    import workloads

    return workloads


def role_setup(name: str, seed: int, work: Path) -> None:
    workloads = _import_workloads()
    if name == "audit-large":
        workloads.setup_audit(work, seed)
    elif name == "cli-fixture":
        workloads.setup_cli(work, seed, ROOT)
    else:
        workloads.setup_evidence(work, seed)


def _make_workload(workloads, name: str, work: Path, span):
    if name == "audit-large":
        return workloads.AuditLarge(work, span)
    if name == "cli-fixture":
        return workloads.CliFixture(work, span, ROOT, child_env(work / "pycache"))
    return workloads.Evidence(work, span)


def run_ops(workload, seconds: float, min_ops: int, max_ops: int | None, switch=None) -> dict:
    """Closed loop, one client: the next op starts when the previous one and
    its oracle are done.  With a ``tracing.Switch``, odd ops are traced and
    even ops are not, so both halves see the same host conditions."""
    run = {"durations": [], "traced": [], "calibrations": [], "failures": [], "counts": []}
    start = time.perf_counter()
    i = 0
    while True:
        workload.prepare(i)
        run["calibrations"].append(calibration_batch(run["durations"][-1] if run["durations"] else 0.0))
        traced = switch is not None and i % 2 == 1
        if switch is not None:
            switch.select(traced, i)
        span = switch or tracing.no_span
        t0 = time.perf_counter()
        try:
            with span("op"):
                out = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        run["durations"].append(time.perf_counter() - t0)
        run["traced"].append(traced)
        if out is not None:
            try:
                with span("check"):
                    problems = workload.check(i, out)
                if traced:
                    with span("probe"):
                        run["counts"].append(workload.probe(i, out))
            except Exception as exc:  # output the oracle cannot even read
                problems = [f"oracle: {type(exc).__name__}: {exc}"]
        if problems:
            run["failures"].append(f"op {i}: " + " | ".join(problems))
        i += 1
        elapsed = time.perf_counter() - start
        if max_ops is not None and i >= max_ops:
            break
        if (elapsed >= seconds and i >= min_ops) or elapsed >= LOOP_CAP_S:
            break
    run["calibrations"].append(calibration_batch(run["durations"][-1]))
    return run


def role_worker(name: str, seed: int, seconds: float, trace: bool, work: Path, smoke: bool) -> None:
    import warnings

    workloads = _import_workloads()
    import sweep
    from laisc.metrics import SmallSampleWarning

    warnings.simplefilter("ignore", SmallSampleWarning)
    max_ops = 4 if smoke else None
    if not trace:
        workload = _make_workload(workloads, name, work, tracing.no_span)
        try:
            result = run_ops(workload, seconds, MIN_OPS, max_ops)
        finally:
            workload.close()
        result["peak_rss_mb"] = workload.peak_rss_mb()
    else:
        started = time.perf_counter()
        switch = tracing.Switch()
        workload = _make_workload(workloads, name, work, switch)
        try:
            result = run_ops(workload, seconds * 2 / 3, 6, max_ops, switch)
        finally:
            workload.close()
        layer = sweep.spawn_and_import_ms(child_env(work / "pycache"), reps=1 if smoke else 5)
        budget = max(1.0, seconds - (time.perf_counter() - started))
        if smoke:
            layer.update(sweep.scaling_exponents(seed, budget, sizes=(40, 80, 160), sides=(16, 32)))
        else:
            layer.update(sweep.scaling_exponents(seed, budget))
        layer.update(per_layer_from_trace(switch.tracer, result["counts"]))
        halves = [[d for d, t in zip(result["durations"], result["traced"]) if t == flag] for flag in (False, True)]
        p50, traced_p50 = (statistics.median(half) for half in halves)
        layer.update(
            {
                "trace.untraced_op_p50_ms": p50 * 1e3,
                "trace.traced_op_p50_ms": traced_p50 * 1e3,
                "trace.overhead_ms": (traced_p50 - p50) * 1e3,
            }
        )
        result.update(per_layer=layer, spans=switch.tracer.spans)
    (work / "result.json").write_text(json.dumps(result))


def per_layer_from_trace(tracer, counts: list[dict]) -> dict:
    """Median over ops of each span's self time per call, plus work counts and
    error counts.  A layer the workload never calls reads 0."""
    out = {}
    for name, values in tracer.per_op_means().items():
        if name in ("model.lookup", "evaluation.evaluate_vr"):
            out[f"{name}_us"] = statistics.median(values) * 1e6
        elif name not in ("op", "check", "probe", "cli.invoke"):
            out[f"{name}_ms"] = statistics.median(values) * 1e3
    for key in {key for per_op in counts for key in per_op}:
        out[key] = statistics.median(per_op[key] for per_op in counts if key in per_op)
    errors = tracer.errors_by_layer()
    out.update({f"{layer}.errors": errors.get(layer, 0) for layer in LAYERS})
    return out


# --- orchestration ---------------------------------------------------------------------


def _child(role: str, name: str, seed: int, work: Path, extra: list[str] = ()) -> float:
    """Run one set-up or worker process; returns its wall time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", name,
            "--seed", str(seed), "--work", str(work), *extra]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(work / "pycache"), cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{role} for {name} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return wall


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    run_dir = WORK_ROOT / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups, calibrations = [], []
        for repeat in range(1 if trace or smoke else SETUP_REPEATS):
            work = run_dir / f"setup-{repeat}"
            work.mkdir(parents=True)
            calibrations += [calibrate() for _ in range(3)]
            setups.append(_child("setup", name, seed, work))
        extra = ["--seconds", repr(seconds), "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
        _child("worker", name, seed, work, extra)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(setups=setups, setup_calibrations=calibrations)
    if trace:
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans = result.pop("spans")
        keys = ("name", "start", "end", "parent", "op_id", "calls", "error")
        (traces / f"{name}-s{seed}.json").write_text(json.dumps([dict(zip(keys, span)) for span in spans]))
    return result


def report_run(name: str, result: dict, trace: bool) -> dict:
    durations, failures = result["durations"], result["failures"]
    attempted, failed = len(durations), len(failures)
    print(f"workload {name}: {attempted} ops, closed loop, 1 client")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  fail_ratio = {failed / attempted} ({failed}/{attempted})")
    if trace:
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        metrics = {metric: {"value": float(result["per_layer"].get(metric, 0.0)), "unit": units[metric]}
                   for metric in units}
    else:
        values = end_to_end(result)
        tail_s, rank = tail(durations)
        print(f"  op_tail_ms is p{rank:.1f} of {attempted} samples; setup_s is the median of "
              f"{len(result['setups'])} fresh set-ups")
        flat = [c for batch in result["calibrations"] for c in batch]
        print(f"  host speed scale {host_scale(flat):.4f} (set-up "
              f"{host_scale(result['setup_calibrations']):.4f}); unscaled wall times: op p50 "
              f"{statistics.median(durations) * 1e3:.6g} ms, tail {tail_s * 1e3:.6g} ms, "
              f"setup {statistics.median(result['setups']):.6g} s")
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}
    for metric, node in metrics.items():
        print(f"  {metric:<36} {node['value']:>14.6g} {node['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}, {m["name"] for m in spec["end_to_end"]}
    problems = []
    if declared[0] != {m for m, _, _ in PER_LAYER} or declared[1] != {m for m, _ in END_TO_END}:
        problems.append("metric names differ from BENCHMARK.json")
    for name in WORKLOADS:
        result = measure(name, seed=7, seconds=0.0, trace=True, smoke=True)
        summary = report_run(name, result, trace=True)
        problems += [f"{name}: {failure}" for failure in result["failures"]]
        problems += [f"{name}: {m} is not finite" for m, node in summary["metrics"].items()
                     if not math.isfinite(node["value"])]
        if summary["attempted"] != 4:
            problems.append(f"{name}: {summary['attempted']} ops, want 4")
    for problem in problems:
        print(f"SMOKE PROBLEM {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="four ops of every workload, all oracles on")
    parser.add_argument("--role", choices=("setup", "worker"), help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "laisc" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no laisc sources (src/laisc)", file=sys.stderr)
        return 2
    if args.role == "setup":
        role_setup(args.workload, args.seed, args.work)
        return 0
    if args.role == "worker":
        role_worker(args.workload, args.seed, args.seconds, bool(args.trace), args.work, args.smoke)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report_run(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
