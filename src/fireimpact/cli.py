"""Command-line surface: synth, perimeters, downscale, assess, render, report.

Each subcommand reads the manifest, runs its stage, and writes file
artifacts, so stages can be re-run and inspected independently. Exit
codes: 0 success, 1 validation problem, 2 file/format problem, 64
unknown subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dasymetric import FALLBACKS, MassReport
from .errors import FormatError, ValidationError
from .impact import EventSummary, cents_to_usd, summarize
from .io_formats import (
    mask_to_category,
    read_manifest,
    read_report,
    records_from_rows as _records_from_rows,
    render_svg,
    write_ascii_grid,
    write_daily_perimeters_geojson,
    write_report,
)
from .perimeters import KdeParams
from .pipeline import assess, compute_perimeters, compute_population, load_layers
from .scenario import ScenarioSpec, generate

USAGE = """usage: fireimpact <subcommand> [options]

subcommands:
  synth       generate a seeded synthetic scenario with ground truth
  perimeters  daily new-burn masks and boundary polygons per district
  downscale   population grid from blocks and land cover, plus mass report
  assess      full daily impact report (report.csv)
  render      SVG map of population and daily burn outlines
  report      print totals, peaks, and composition percentages

run `fireimpact <subcommand> --help` for options
"""


def _add_manifest_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="manifest JSON path")


def _add_kde_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bandwidth-m", type=float, default=750.0,
                        help="KDE bandwidth in meters (default 750)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="density threshold (default 0.05)")
    parser.add_argument("--threshold-mode", default="relative_to_daily_max",
                        choices=["relative_to_daily_max", "absolute"])
    parser.add_argument("--frp-weighted", action="store_true",
                        help="weight detections by fire radiative power")


def _kde_params(args: argparse.Namespace) -> KdeParams:
    return KdeParams(
        bandwidth_m=args.bandwidth_m,
        threshold_mode=args.threshold_mode,
        threshold_value=args.threshold,
        frp_weighted=args.frp_weighted,
    )


def _override_paths(manifest, args):
    if getattr(args, "weights", None):
        manifest.paths["weights"] = Path(args.weights).resolve()
    if getattr(args, "costs", None):
        manifest.paths["costs"] = Path(args.costs).resolve()
    for role in ("weights", "costs"):
        if role in manifest.paths and not manifest.paths[role].exists():
            raise ValidationError(f"{role} file does not exist: {manifest.paths[role]}")
    return manifest


def cmd_synth(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact synth")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    if args.seed < 0:
        # numpy refuses a negative seed only after the output directory exists.
        raise FormatError(f"synth: --seed must be a non-negative integer, not {args.seed}")
    manifest, truth = generate(ScenarioSpec(seed=args.seed), args.out)
    print(f"scenario written to {args.out} ({len(truth.rows)} ground-truth rows)")
    return 0


def _district_slugs(names: list[str]) -> dict[str, str]:
    """Each district's part of its file names: its name with spaces as underscores.

    Two districts with one slug, or a slug holding a path separator or NUL,
    would overwrite or escape the output files, so they are a ValidationError.
    """
    by_slug: dict[str, str] = {}
    for name in names:
        slug = name.replace(" ", "_")
        if any(ch in slug for ch in "/\\\0"):
            raise ValidationError(
                f"district {name!r} cannot name a file: it holds a path separator or NUL"
            )
        if slug in by_slug:
            raise ValidationError(
                f"districts {by_slug[slug]!r} and {name!r} both name their files {slug!r}"
            )
        by_slug[slug] = name
    return {name: slug for slug, name in by_slug.items()}


def cmd_perimeters(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact perimeters")
    _add_manifest_arg(parser)
    parser.add_argument("--out", required=True, help="output directory")
    _add_kde_args(parser)
    args = parser.parse_args(argv)
    manifest = read_manifest(args.manifest)
    layers = load_layers(manifest, {"detections", "official_perimeter"})
    slugs = _district_slugs(layers.districts.names)
    perims = compute_perimeters(layers, _kde_params(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_files = 0
    for name in sorted(perims):
        slug = slugs[name]
        for day in perims[name]:
            stem = f"{slug}_{day.date.isoformat()}"
            write_daily_perimeters_geojson(
                name, day, manifest.origin_lon, manifest.origin_lat,
                out / f"new_burn_{stem}.geojson",
            )
            write_ascii_grid(mask_to_category(day.new_burn), out / f"new_burn_{stem}.asc")
            n_files += 2
        if perims[name]:
            final = perims[name][-1].cumulative
            write_ascii_grid(mask_to_category(final), out / f"cumulative_{slug}.asc")
            n_files += 1
    print(f"wrote {n_files} perimeter artifacts to {out}")
    return 0


def cmd_downscale(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact downscale")
    _add_manifest_arg(parser)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--weights", help="override weights JSON path")
    args = parser.parse_args(argv)
    manifest = _override_paths(read_manifest(args.manifest), args)
    layers = load_layers(manifest, {"landcover", "blocks", "weights"})
    popgrid, ds_report, mass = compute_population(layers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ascii_grid(popgrid, out / "population.asc")
    _write_mass_report(mass, out / "mass_report.csv")
    print(
        f"population grid written to {out / 'population.asc'}; "
        f"max relative error {mass.max_rel_err():.3g} over "
        f"{len(mass.block_ids)} blocks ({len(ds_report.fallback_ids())} fallback)"
    )
    return 0


def _write_mass_report(mass: MassReport, path: Path) -> None:
    import csv

    fallbacks = [name or "" for name in FALLBACKS]
    columns = (
        mass.block_ids,
        *(map(repr, a.tolist()) for a in (mass.pop, mass.allocated, mass.rel_err)),
        map(fallbacks.__getitem__, mass.fallback.tolist()),
    )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["block_id", "pop", "allocated", "rel_err", "fallback"])
        writer.writerows(zip(*columns))


def cmd_assess(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact assess")
    _add_manifest_arg(parser)
    parser.add_argument("--out", required=True, help="output directory")
    _add_kde_args(parser)
    parser.add_argument("--weights", help="override weights JSON path")
    parser.add_argument("--costs", help="override cost model JSON path")
    parser.add_argument("--active-extent", action="store_true",
                        help="expose the day's full active mask, not just new burn")
    parser.add_argument("--cumulative-report", action="store_true",
                        help="append running per-district totals to report.csv")
    args = parser.parse_args(argv)
    manifest = _override_paths(read_manifest(args.manifest), args)
    layers = load_layers(
        manifest,
        {"detections", "landcover", "blocks", "roads", "buildings", "pois",
         "official_perimeter", "weights", "costs", "demographics"},
    )
    records = assess(layers, _kde_params(args), active_extent=args.active_extent)
    if not records:
        raise ValidationError("no detections: nothing to assess")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(records, out / "report.csv", cumulative=args.cumulative_report)
    print(f"report written to {out / 'report.csv'} ({len(records)} rows)")
    return 0


def cmd_render(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact render")
    _add_manifest_arg(parser)
    parser.add_argument("--out", required=True, help="output SVG path")
    _add_kde_args(parser)
    args = parser.parse_args(argv)
    manifest = read_manifest(args.manifest)
    layers = load_layers(
        manifest,
        {"detections", "landcover", "blocks", "weights", "official_perimeter"},
    )
    perims = compute_perimeters(layers, _kde_params(args))
    popgrid, _, _ = compute_population(layers)
    render_svg(
        args.out,
        manifest.grid,
        popgrid=popgrid,
        perimeters=perims,
        districts=layers.districts,
    )
    print(f"map written to {args.out}")
    return 0


def cmd_report(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fireimpact report")
    parser.add_argument("--report", required=True, help="report.csv from assess")
    args = parser.parse_args(argv)
    rows = read_report(args.report)
    if not rows:
        raise ValidationError(f"{args.report}: report has no rows")
    records = _records_from_rows(rows, args.report)
    print_summary(summarize(records))
    return 0


def print_summary(summary: EventSummary) -> None:
    print(f"event total loss usd: {cents_to_usd(summary.grand_total_cents)}")
    print(
        f"event total exposed persons: {summary.total_exposed:.3f} "
        f"({round(summary.total_exposed)})"
    )
    for d in summary.districts:
        print(f"district {d.name}:")
        for cat, s in d.peaks.items():
            if s.peak_date is None:
                print(f"  {cat}: total {s.total:.2f}, no activity")
            else:
                print(
                    f"  {cat}: total {s.total:.2f}, "
                    f"peak {s.peak_date.isoformat()} ({s.peak_value:.2f})"
                )
        _print_composition(f"land composition (% of usd) for {d.name}",
                           {str(k): v for k, v in d.land_pct_by_class.items()})
        _print_composition(f"road composition (% of meters) for {d.name}",
                           d.road_pct_by_class)
        _print_composition(f"poi composition (% of count) for {d.name}",
                           d.poi_pct_by_category)


def _print_composition(title: str, pct: dict[str, float]) -> None:
    if not pct:
        return
    body = ", ".join(f"{k}={v:.2f}%" for k, v in sorted(pct.items()))
    print(f"  {title}: {body}")


COMMANDS = {
    "synth": cmd_synth,
    "perimeters": cmd_perimeters,
    "downscale": cmd_downscale,
    "assess": cmd_assess,
    "render": cmd_render,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, end="")
        return 0
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write(f"unknown subcommand: {command}\n\n{USAGE}")
        return 64
    try:
        return COMMANDS[command](argv[1:])
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except MemoryError:
        # A valid but extreme input, such as a manifest grid of 10^9 rows.
        sys.stderr.write(f"error: {command}: out of memory; the grid or input is too large\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
