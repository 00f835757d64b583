"""fireimpact benchmark: seeded CLI workloads, each run gated for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input tree from the seed SETUP_REPEATS times (timing
set-up; every build must be byte-identical), then runs
``fireimpact.cli.main`` on it in a fresh process, one run at a time,
until about S seconds have passed since the start. Every run must exit 0,
pass the workload's correctness gate and write outputs whose sha256
digest equals the invocation's first run; any other run counts as
failed.

With --trace 0 the last line reports the end-to-end metrics: the mean
wall time per run, the work rate it gives, the median peak RSS and the
median set-up time. With --trace 1 runs alternate between traced and
untraced, and the last line reports per-layer self times and counts from
the traced runs plus the tracing overhead.
"""

from __future__ import annotations

import os

# One thread per process: the runs are a closed loop on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import calls, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Leaves room for set-up, gates and one slow run inside a 180 s process.
PROCESS_BUDGET_S = 150.0
# Input builds per invocation; setup_s is their median.
SETUP_REPEATS = 5

# Per-layer metrics: name -> (kind, key). "self" is the summed self time
# of spans with that name, "calls" their call count, "count" a counter
# from the tracer.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "cli.self_s": ("self", "cli.main"),
    "pipeline.load_layers_s": ("self", "pipeline.load_layers"),
    "pipeline.compute_perimeters_s": ("self", "pipeline.compute_perimeters"),
    "pipeline.compute_population_s": ("self", "pipeline.compute_population"),
    "pipeline.exposure_by_block_s": ("self", "pipeline.exposure_by_block"),
    "pipeline.exposure_by_block_calls": ("calls", "pipeline.exposure_by_block"),
    "pipeline.assess_s": ("self", "pipeline.assess"),
    "io_formats.read_s": ("self", "io_formats.read"),
    "io_formats.write_s": ("self", "io_formats.write"),
    "io_formats.detections_read": ("count", "io_formats.detections_read"),
    "io_formats.bytes_written": ("count", "io_formats.bytes_written"),
    "perimeters.kde_s": ("self", "perimeters.kde"),
    "perimeters.kde_calls": ("calls", "perimeters.kde"),
    "perimeters.kde_points": ("count", "perimeters.kde_points"),
    "perimeters.kde_cell_evals": ("count", "perimeters.kde_cell_evals"),
    "perimeters.threshold_s": ("self", "perimeters.threshold"),
    "perimeters.extract_s": ("self", "perimeters.extract"),
    "perimeters.new_burn_cells": ("count", "perimeters.new_burn_cells"),
    "perimeters.active_cells": ("count", "perimeters.active_cells"),
    "geometry.trace_mask_boundary_s": ("self", "geometry.trace_mask_boundary"),
    "geometry.trace_calls": ("calls", "geometry.trace_mask_boundary"),
    "geometry.trace_rings": ("count", "geometry.trace_rings"),
    "geometry.trace_holes": ("count", "geometry.trace_holes"),
    "geometry.point_in_polygon_s": ("self", "geometry.point_in_polygon"),
    "geometry.point_in_polygon_calls": ("calls", "geometry.point_in_polygon"),
    "geometry.polygons_cell_indices_s": ("self", "geometry.polygons_cell_indices"),
    "geometry.polygons_cell_indices_calls": ("calls", "geometry.polygons_cell_indices"),
    "geometry.rasterize_polyline_s": ("self", "geometry.rasterize_polyline"),
    "dasymetric.rasterize_blocks_s": ("self", "dasymetric.rasterize_blocks"),
    "dasymetric.downscale_s": ("self", "dasymetric.downscale"),
    "dasymetric.validate_mass_s": ("self", "dasymetric.validate_mass"),
    "dasymetric.blocks": ("count", "dasymetric.blocks"),
    "dasymetric.fallback_blocks": ("count", "dasymetric.fallback_blocks"),
    "dasymetric.overlap_cells": ("count", "dasymetric.overlap_cells"),
    "impact.building_loss_s": ("self", "impact.building_loss"),
    "impact.building_loss_calls": ("calls", "impact.building_loss"),
    "impact.buildings_charged": ("count", "impact.buildings_charged"),
    "impact.land_use_loss_s": ("self", "impact.land_use_loss"),
    "impact.road_loss_s": ("self", "impact.road_loss"),
    "impact.poi_exposure_s": ("self", "impact.poi_exposure"),
    "impact.population_exposure_s": ("self", "impact.population_exposure"),
    "impact.demographic_breakdown_s": ("self", "impact.demographic_breakdown"),
}
# Derived in layer_metrics(): charged buildings per footprint rasterization,
# and traced minus untraced mean wall time.
DERIVED_METRICS = {"impact.building_charge_ratio": "ratio", "trace.overhead_s": "s"}
END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_days_per_s": "cell-days/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name in DERIVED_METRICS:
        return DERIVED_METRICS[name]
    return "s" if LAYER_METRICS[name][0] == "self" else "count"


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def set_up(workload, seed: int, root: Path):
    """Build the input tree afresh; returns it, the build time and its digest."""
    shutil.rmtree(root, ignore_errors=True)
    start = time.perf_counter()
    inputs = workload.build(seed, root)
    seconds = time.perf_counter() - start
    return inputs, seconds, tree_digest(root)


def run_once(workload, inputs, base: Path, traced: bool, run_id: str, cpu: int,
             timeout: float) -> dict:
    """One CLI run in a fresh process pinned to ``cpu``, then its gate and
    output digest."""
    out = base / "out"
    result_path = base / "result.json"
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if traced else "0", run_id, str(cpu), "--", *workload.argv(inputs, out)]
    record = {"traced": traced, "problems": []}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["problems"].append(f"no result within {timeout:.0f} s")
        return record
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record["problems"].append(f"runner exited {proc.returncode}: {tail[0]}")
        return record
    record.update(json.loads(result_path.read_text()))
    if record["exit_code"] != 0:
        record["problems"].append(f"cli exited {record['exit_code']}: {proc.stderr.strip()[-200:]}")
    else:
        record["problems"] += workload.gate(inputs, out)
    record["digest"] = tree_digest(out) if out.is_dir() else ""
    return record


def layer_metrics(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    selfs = self_times(spans)
    n_calls = calls(spans)
    values: dict[str, float] = {}
    for name, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            values[name] = selfs.get(key, 0.0)
        elif kind == "calls":
            values[name] = n_calls.get(key, 0)
        else:
            values[name] = trace["counts"].get(key, 0)
    footprints = calls(spans, "impact.building_loss").get("geometry.polygons_cell_indices", 0)
    values["impact.building_charge_ratio"] = (
        values["impact.buildings_charged"] / footprints if footprints else 0.0
    )
    return values


def _pool(runs: list[dict], traced: bool) -> list[dict]:
    """The timed runs of one kind that passed, or all of them if none did."""
    timed = [r for r in runs if "wall_s" in r and r["traced"] == traced]
    return [r for r in timed if not r["problems"]] or timed


def summarize(workload, runs: list[dict], setup_times: list[float], trace: bool) -> dict:
    untraced = _pool(runs, traced=False)
    if not trace:
        # The mean, not the median: the machine's speed moves in phases of
        # tens of seconds, and a median of a dozen runs jumps from one
        # phase to another where the mean averages them.
        wall = statistics.fmean(r["wall_s"] for r in untraced)
        return {
            "wall_s": wall,
            "cell_days_per_s": workload.cells * workload.event_days / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": statistics.median(setup_times),
        }
    traced = _pool(runs, traced=True)
    per_run = [layer_metrics(r["trace"]) for r in traced]
    values = {}
    for name in LAYER_METRICS:
        if layer_unit(name) == "s":
            values[name] = statistics.median(v[name] for v in per_run)
        else:
            values[name] = per_run[0][name]
    values["impact.building_charge_ratio"] = per_run[0]["impact.building_charge_ratio"]
    values["trace.overhead_s"] = statistics.fmean(r["wall_s"] for r in traced) - (
        statistics.fmean(r["wall_s"] for r in untraced)
    )
    return values


def cross_check(run: dict, earlier: list[dict]) -> None:
    """Outputs must match the invocation's first run byte for byte, and a
    traced run's counts must repeat those of the first traced run."""
    if earlier and run.get("digest") != earlier[0].get("digest"):
        run["problems"].append("output digest differs from the first run")
    first_traced = next((r for r in earlier if "trace" in r), None)
    if "trace" in run and first_traced is not None:
        counts, want = (
            {k: v for k, v in layer_metrics(r["trace"]).items() if layer_unit(k) == "count"}
            for r in (run, first_traced)
        )
        if counts != want:
            changed = sorted(k for k in counts if counts[k] != want[k])
            run["problems"].append(f"counts differ from the first traced run: {changed}")


def main(argv: list[str] | None = None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fireimpact" / "cli.py").is_file():
        sys.stderr.write(f"no fireimpact sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    base = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        setup_times: list[float] = []
        digests = set()
        for _ in range(SETUP_REPEATS):
            inputs, seconds, input_digest = set_up(workload, args.seed, base / "inputs")
            setup_times.append(seconds)
            digests.add(input_digest)
        print(f"set-up: {', '.join(f'{t:.3f}' for t in setup_times)} s, "
              f"{len(digests)} distinct input tree(s)")
        setup_problems = [] if len(digests) == 1 else ["input builds differ"]
        # The host places each CPU of this machine on its own and their
        # speeds change apart, so successive pairs of runs go to the CPUs in
        # turn and the mean samples all of them. Pairs keep traced and
        # untraced runs on every CPU.
        cpus = sorted(os.sched_getaffinity(0))
        runs: list[dict] = []
        durations: list[float] = []
        min_runs = 3 if trace else 1
        while True:
            started = time.perf_counter()
            remaining = PROCESS_BUDGET_S - (started - process_start)
            traced = trace and len(runs) % 2 == 0
            cpu = cpus[len(runs) // 2 % len(cpus)]
            run = run_once(workload, inputs, base, traced,
                           f"{workload.name}-{args.seed}-{len(runs)}", cpu, max(remaining, 1.0))
            run["problems"][:0] = setup_problems
            cross_check(run, runs)
            runs.append(run)
            now = time.perf_counter()
            durations.append(now - started)
            print(
                f"run {len(runs)} {'traced' if traced else 'untraced'} on cpu {cpu}: "
                f"wall {run.get('wall_s', float('nan')):.3f} s, "
                f"rss {run.get('peak_rss_mb', float('nan')):.1f} MB, "
                f"digest {run.get('digest', '-')}, "
                + ("ok" if not run["problems"] else "FAILED: " + "; ".join(run["problems"][:3]))
            )
            # Start another run only if even the slowest run so far would
            # end within the measured time, counted from the start.
            expected = max(durations)
            if len(runs) >= min_runs and now + expected - process_start > args.seconds:
                break
            if now + expected - process_start > PROCESS_BUDGET_S:
                break
        if trace:
            save_trace(workload.name, args.seed, runs)
            missing = sorted({f for r in runs for f in r.get("untraced_functions", [])})
            if missing:
                print(f"not in this version of the program, reading 0: {', '.join(missing)}")
        failed = sum(1 for r in runs if r["problems"])
        timed = [r for r in runs if "wall_s" in r]
        if not any(not r["traced"] for r in timed) or (trace and not any(r["traced"] for r in timed)):
            sys.stderr.write("no run finished; no metrics to report\n")
            return 1
        values = summarize(workload, runs, setup_times, trace)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    units = {n: layer_unit(n) for n in values} if trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


def save_trace(workload: str, seed: int, runs: list[dict]) -> None:
    """Write the traced runs' spans and counts where the next reader can find them."""
    out = WORK / "traces" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([r["trace"] for r in runs if "trace" in r]))
    print(f"spans written to {out.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
