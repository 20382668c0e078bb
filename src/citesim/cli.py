"""Command-line front end: configuration, sweep execution, artifact emission.

Outputs are deterministic byte-for-byte given (configuration, master seed):
table1.csv (similarity-below-1 counts), table2.csv (formula-vs-model
discrepancy statistics), figure1.csv (per-configuration similarity rows),
records.jsonl (full per-configuration summaries) and manifest.json (the
inputs needed to reproduce them).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .appendix_stats import appendix_demo, rank_sums_from_frequency, table4_example
from .experiment import (
    DEFAULT_MU_VALUES,
    DEFAULT_N_VALUES,
    DEFAULT_P_VALUES,
    FORMULA_INDICATOR_NAMES,
    INDICATOR_NAMES,
    SweepReport,
    generate_grid,
    run_sweep,
    summarize,
    total_draws,
    validate_grid,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_reports", "main"]

log = logging.getLogger(__name__)

MODES = ("sweep", "table1", "table2", "figure1", "appendix", "table4")
THREADS_ENV = "CITESIM_THREADS"

# The appendix demo's fixed inputs: country sizes, world size and the
# location both countries share.
_APPENDIX_DEMO = {"sample1_size": 75, "sample2_size": 25, "world_size": 500, "mu": 0.9}
# Keys a manifest.json echoes beyond the inputs, so a manifest can be fed
# straight back through --config to reproduce a run.
_MANIFEST_ECHO_KEYS = {"version", "configurations", "total_draws", *_APPENDIX_DEMO}


class ConfigError(ValueError):
    """Invalid configuration file or command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors exit 1
        raise ConfigError(message)


@dataclass
class RunConfig:
    """Resolved run configuration (defaults reproduce the standard grid)."""

    mode: str = "sweep"
    mu_values: tuple = DEFAULT_MU_VALUES
    p_values: tuple = DEFAULT_P_VALUES
    n_values: tuple = DEFAULT_N_VALUES
    sigma: float = 1.0
    mu_overall: float = 1.0
    replicates: int = 1000
    master_seed: int = 1
    threads: int = 0
    output_dir: Path = Path("results")

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.replicates < 40:
            raise ConfigError(
                "replicates: need at least 40 for 95% empirical intervals"
            )
        if self.threads < 0:
            raise ConfigError("threads: must be >= 0 (0 selects the CPU count)")
        try:
            validate_grid(self.mu_values, self.p_values, self.n_values,
                          self.sigma, self.mu_overall)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.output_dir.exists() and not self.output_dir.is_dir():
            raise ConfigError(f"output_dir: {self.output_dir} exists and is not a directory")


# Config-file keys: every RunConfig field, plus mu_range as an alternative to mu_values.
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"mu_range"}


def _expand_range(key: str, bounds) -> tuple:
    bounds = list(bounds)
    if len(bounds) == 2:
        bounds.append(0.02)
    if len(bounds) != 3:
        raise ConfigError(f"{key}: expected LO HI [STEP], got {bounds}")
    lo, hi, step = bounds
    if hi <= lo:
        raise ConfigError(f"{key}: nonincreasing range {lo}..{hi}")
    if step <= 0:
        raise ConfigError(f"{key}: step must be positive, got {step}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(round(lo + i * step, 10) for i in range(count))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="citesim",
        description=(
            "Replicated two-country citation simulations: how precisely do the "
            "arithmetic mean, geometric mean and top-X% shares separate two "
            "article populations?"
        ),
    )
    parser.add_argument("mode", nargs="?", choices=MODES, default=None,
                        help="artifacts to produce (default: sweep, which emits everything)")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with the same keys as the flags; flags win")
    parser.add_argument("--mu-values", "--mu", dest="mu_values", nargs="+", type=float,
                        default=None, help="location grid shared by both countries")
    parser.add_argument("--mu-range", "--mu1-range", dest="mu_range", nargs="+", type=float,
                        default=None, metavar="BOUND",
                        help="location grid as LO HI [STEP], step defaults to 0.02")
    parser.add_argument("--p-values", "--p", dest="p_values", nargs="+", type=float,
                        default=None, help="world-share grid for both countries")
    parser.add_argument("--n-values", "--n", dest="n_values", nargs="+", type=int,
                        default=None, help="world sizes")
    parser.add_argument("--sigma", type=float, default=None, help="shared scale parameter")
    parser.add_argument("--mu-overall", dest="mu_overall", type=float, default=None,
                        help="overall location parameter held fixed by the mixture solve")
    parser.add_argument("--replicates", "-r", type=int, default=None,
                        help="replicates per configuration")
    parser.add_argument("--seed", dest="master_seed", type=int, default=None,
                        help="master seed; every stream derives from it")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"worker processes, 0 = auto (env {THREADS_ENV} when absent)")
    parser.add_argument("--out", dest="output_dir", type=Path, default=None,
                        help="output directory (default: results)")
    parser.add_argument("--version", action="version", version=f"citesim {__version__}")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config: {path} must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS - _MANIFEST_ECHO_KEYS
    if unknown:
        raise ConfigError(f"config: unknown key(s): {', '.join(sorted(unknown))}")
    return {key: value for key, value in raw.items() if key in _CONFIG_KEYS}


def parse_config(argv=None) -> RunConfig:
    """Resolve a RunConfig from flags and optional JSON file (flags win)."""
    args = _build_parser().parse_args(argv)
    file_values = _load_config_file(args.config) if args.config else {}

    config = RunConfig()

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return getattr(config, key)

    mu_values = args.mu_values
    if mu_values is None and args.mu_range is not None:
        mu_values = _expand_range("mu-range", args.mu_range)
    if mu_values is None and "mu_values" in file_values:
        mu_values = file_values["mu_values"]
    if mu_values is None and "mu_range" in file_values:
        mu_values = _expand_range("mu_range", file_values["mu_range"])
    if mu_values is None:
        mu_values = config.mu_values

    threads = args.threads
    if threads is None and os.environ.get(THREADS_ENV):
        try:
            threads = int(os.environ[THREADS_ENV])
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV}: must be an integer, got {os.environ[THREADS_ENV]!r}"
            ) from None
    if threads is None:
        threads = int(file_values.get("threads", config.threads))

    config = RunConfig(
        mode=args.mode if args.mode is not None else file_values.get("mode", "sweep"),
        mu_values=tuple(float(v) for v in mu_values),
        p_values=tuple(float(v) for v in pick(args.p_values, "p_values")),
        n_values=tuple(int(v) for v in pick(args.n_values, "n_values")),
        sigma=float(pick(args.sigma, "sigma")),
        mu_overall=float(pick(args.mu_overall, "mu_overall")),
        replicates=int(pick(args.replicates, "replicates")),
        master_seed=int(pick(args.master_seed, "master_seed")),
        threads=threads,
        output_dir=Path(pick(args.output_dir, "output_dir")),
    )
    config.validate()
    return config


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".6g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _table1_rows(report: SweepReport):
    n_values = sorted({n for n, _ in report.table1})
    for n_world in n_values:
        for name in INDICATOR_NAMES:
            cell = report.table1[(n_world, name)]
            yield [n_world, name, cell.count, cell.percent]


def _table2_rows(report: SweepReport):
    n_values = sorted({n for _, _, n in report.table2})
    for n_world in n_values:
        for name in FORMULA_INDICATOR_NAMES:
            for side in ("lower", "upper"):
                row = report.table2.get((name, side, n_world))
                if row is None:
                    continue
                yield [name, side, n_world, _fmt(row.minimum), _fmt(row.maximum),
                       _fmt(row.mean), _fmt(row.sd)]


def _figure1_rows(report: SweepReport):
    for record in report.records:
        ps = record.params
        for name in INDICATOR_NAMES:
            yield [_fmt(ps.mu1), _fmt(ps.mu2), _fmt(ps.p1), _fmt(ps.p2), ps.n_world,
                   name, _fmt(record.similarities[name])]


def emit_reports(report: SweepReport, config: RunConfig, outdir: Path,
                 artifacts=("table1", "table2", "figure1", "records", "manifest")) -> dict:
    """Write the requested artifacts; returns {artifact: path}."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    try:
        if "table1" in artifacts:
            path = outdir / "table1.csv"
            _write_csv(path, ["N", "indicator", "count", "percent"], _table1_rows(report))
            written["table1"] = path
        if "table2" in artifacts:
            path = outdir / "table2.csv"
            _write_csv(path, ["indicator", "limit_side", "N", "min", "max", "mean", "sd"],
                       _table2_rows(report))
            written["table2"] = path
        if "figure1" in artifacts:
            path = outdir / "figure1.csv"
            _write_csv(path, ["mu1", "mu2", "p1", "p2", "N", "indicator", "similarity"],
                       _figure1_rows(report))
            written["figure1"] = path
        if "records" in artifacts:
            path = outdir / "records.jsonl"
            with open(path, "w") as handle:
                for record in report.records:
                    handle.write(json.dumps(record.to_dict(), separators=(",", ":")))
                    handle.write("\n")
            written["records"] = path
        if "manifest" in artifacts:
            written["manifest"] = _write_manifest(outdir, {
                **_run_inputs(config),
                "mu_values": list(config.mu_values),
                "p_values": list(config.p_values),
                "n_values": list(config.n_values),
                "configurations": len(report.records),
                "total_draws": total_draws([r.params for r in report.records]),
            })
    except OSError as exc:
        raise RuntimeError(f"failed writing {exc.filename}: {exc.strerror}") from exc
    return written


def _run_inputs(config: RunConfig) -> dict:
    return {
        "mode": config.mode,
        "master_seed": config.master_seed,
        "replicates": config.replicates,
        "sigma": config.sigma,
        "mu_overall": config.mu_overall,
    }


def _write_manifest(outdir: Path, inputs: dict) -> Path:
    """Write manifest.json: the version plus the inputs the run actually used."""
    manifest = {"version": __version__, **inputs}
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _emit_table4(outdir: Path) -> Path:
    table = table4_example()
    sums = rank_sums_from_frequency(table)
    rows = []
    for (value, f1, f2), rank in zip(table.rows, sums.average_ranks):
        rows.append([_fmt(value), f1, f2, _fmt(rank), _fmt(f1 * rank), _fmt(f2 * rank)])
    n1, n2 = table.group_sizes
    rows.append(["total", n1, n2, "", _fmt(sums.group1), _fmt(sums.group2)])
    path = outdir / "table4.csv"
    _write_csv(path, ["value", "group1_freq", "group2_freq", "average_rank",
                      "group1_rank_sum", "group2_rank_sum"], rows)
    return path


_MODE_ARTIFACTS = {
    "sweep": ("table1", "table2", "figure1", "records", "manifest"),
    "table1": ("table1", "manifest"),
    "table2": ("table2", "manifest"),
    "figure1": ("figure1", "manifest"),
}


def _execute(config: RunConfig) -> None:
    outdir = config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)

    if config.mode == "table4":
        path = _emit_table4(outdir)
        _write_manifest(outdir, {"mode": config.mode})
        log.info("wrote %s", path)
        return

    if config.mode == "appendix":
        report = appendix_demo(**_APPENDIX_DEMO, sigma=config.sigma,
                               mu_overall=config.mu_overall,
                               replicates=config.replicates, seed=config.master_seed)
        payload = asdict(report)
        payload.update({"replicates": config.replicates, "master_seed": config.master_seed})
        path = outdir / "appendix.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        _write_manifest(outdir, {**_run_inputs(config), **_APPENDIX_DEMO})
        log.info("wrote %s", path)
        return

    grid = generate_grid(
        mu_values=config.mu_values,
        p_values=config.p_values,
        n_values=config.n_values,
        sigma=config.sigma,
        mu_overall=config.mu_overall,
        replicates=config.replicates,
    )
    if not grid:
        raise RuntimeError("grid contains no feasible configurations")
    log.info(
        "running %d configurations, %d replicates each (%.3g draws total)",
        len(grid), config.replicates, total_draws(grid),
    )
    summaries = run_sweep(grid, config.master_seed, processes=config.threads)
    report = summarize(summaries)
    written = emit_reports(report, config, outdir, _MODE_ARTIFACTS[config.mode])
    for name, path in sorted(written.items()):
        log.info("wrote %s", path)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print(f"citesim: config error: {exc}", file=sys.stderr)
        return 1
    try:
        _execute(config)
    except Exception as exc:
        log.error("run failed: %s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
