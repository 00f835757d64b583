"""Show that each workload's gate accepts a real run and rejects a perturbed one.

    python3 perfbench/selftest.py [--seed N]

For every workload: build the inputs, run the CLI once through the
benchmark's own runner and require the gate to pass. Then, for each
perturbation, copy the outputs, change one value and require both the
gate to reject the copy and the output digest to change. Also checks that
BENCHMARK.json lists exactly the workloads and metrics run.py reports.
Exits 1 if any check fails. Takes about half a minute.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

import run  # sets the one-thread environment before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def _edit_csv(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _add_cent(column: str, row: int):
    def perturb(out: Path, inputs) -> None:
        def edit(rows):
            col = rows[0].index(column)
            whole, frac = rows[row][col].split(".")
            cents = int(whole) * 100 + int(frac) + 1
            rows[row][col] = f"{cents // 100}.{cents % 100:02d}"

        _edit_csv(out / "report.csv", edit)

    return perturb


def _drop_last_row(out: Path, inputs) -> None:
    _edit_csv(out / "report.csv", lambda rows: rows.pop())


def _flip_asc_cell(out: Path, inputs) -> None:
    path = sorted(out.glob("new_burn_*.asc"))[0]
    lines = path.read_text().split("\n")
    row = lines[6 + 100].split(" ")
    row[100] = "0" if row[100] == "1" else "1"
    lines[6 + 100] = " ".join(row)
    path.write_text("\n".join(lines))


def _drop_geojson_feature(out: Path, inputs) -> None:
    path = sorted(out.glob("new_burn_*.geojson"))[0]
    doc = json.loads(path.read_text())
    doc["features"].pop()
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


PERTURBATIONS = {
    "assess-scripted": {
        "one cent added to land_loss_usd": _add_cent("land_loss_usd", 3),
        "one cent added to building_loss_usd": _add_cent("building_loss_usd", 5),
        "last report row dropped": _drop_last_row,
    },
    "perimeters-noisy": {
        "one cell flipped in a new-burn .asc": _flip_asc_cell,
        "one polygon dropped from a daily GeoJSON": _drop_geojson_feature,
    },
}


def check_benchmark_json() -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in doc["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end metrics differ: {sorted(set(e2e) ^ set(run.END_TO_END_UNITS))}")
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    reported = {n: run.layer_unit(n) for n in [*run.LAYER_METRICS, *run.DERIVED_METRICS]}
    if layers != reported:
        diff = sorted(n for n in set(layers) | set(reported) if layers.get(n) != reported.get(n))
        problems.append(f"per_layer metrics differ: {diff}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = check_benchmark_json()
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, workload in WORKLOADS.items():
            wbase = base / name
            inputs = workload.build(args.seed, wbase / "inputs")
            cpu = min(os.sched_getaffinity(0))
            record = run.run_once(workload, inputs, wbase, False, f"selftest-{name}", cpu, 170.0)
            status = "passes" if not record["problems"] else f"FAILS {record['problems'][:3]}"
            print(f"{name}: gate on the real output {status}")
            if record["problems"]:
                failures.append(f"{name}: real output rejected")
                continue
            for what, perturb in PERTURBATIONS[name].items():
                copy = wbase / "perturbed"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(wbase / "out", copy)
                perturb(copy, inputs)
                problems = workload.gate(inputs, copy)
                digest_changed = run.tree_digest(copy) != record["digest"]
                print(f"  {what}: gate {'rejects' if problems else 'ACCEPTS'}"
                      f" ({problems[0] if problems else '-'}), digest "
                      f"{'changes' if digest_changed else 'UNCHANGED'}")
                if not problems or not digest_changed:
                    failures.append(f"{name}: {what} not caught")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
