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
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .appendix_stats import appendix_demo, rank_sums_from_frequency, table4_example
from .distribution import MixtureSpec, rest_of_world_location
from .experiment import (
    DEFAULT_MU_VALUES,
    DEFAULT_N_VALUES,
    DEFAULT_P_VALUES,
    FORMULA_INDICATOR_NAMES,
    INDICATOR_NAMES,
    STREAM_VERSION,
    SweepReport,
    generate_grid,
    run_sweep,
    summarize,
    total_draws,
    validate_grid,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_reports", "main"]

log = logging.getLogger(__name__)

MODES = ("sweep", "appendix", "table4")

# The appendix demo's fixed inputs: country sizes, world size and the
# location both countries share.
_APPENDIX_DEMO = {"sample1_size": 75, "sample2_size": 25, "world_size": 500, "mu": 0.9}
# Keys a manifest.json echoes beyond the inputs, so a manifest can be fed
# straight back through --config to reproduce a run.
_MANIFEST_ECHO_KEYS = {"version", "configurations", "total_draws", "stream_version",
                       "numpy_version", *_APPENDIX_DEMO}


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
        if len(self.mu_values) < 2:
            raise ConfigError("mu_values: need at least two locations to form mu1 < mu2")
        # The least demanding corner: when it is infeasible, so is every configuration.
        (mu1, mu2), p = self.mu_values[:2], self.p_values[0]
        try:
            rest_of_world_location(MixtureSpec(self.mu_overall, self.sigma, mu1, mu2, p, p))
        except ValueError as exc:
            raise ConfigError(f"grid contains no feasible configurations: {exc}") from None
        if self.output_dir.exists() and not self.output_dir.is_dir():
            raise ConfigError(f"output_dir: {self.output_dir} exists and is not a directory")


# Config-file keys: the RunConfig fields, which are also the flags' dests.
_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="citesim",
        description=(
            "Replicated two-country citation simulations: how precisely do the "
            "arithmetic mean, geometric mean and top-X% shares separate two "
            "article populations?"
        ),
    )
    parser.add_argument("mode", nargs="?", choices=MODES,
                        help="kind of run (default: sweep, which writes every table)")
    parser.add_argument("--config", type=Path,
                        help="JSON file keyed like manifest.json; flags win")
    parser.add_argument("--mu-values", dest="mu_values", nargs="+", type=float,
                        help="location grid shared by both countries")
    parser.add_argument("--p-values", dest="p_values", nargs="+", type=float,
                        help="world-share grid for both countries")
    parser.add_argument("--n-values", dest="n_values", nargs="+", type=int,
                        help="world sizes")
    parser.add_argument("--sigma", type=float, help="shared scale parameter")
    parser.add_argument("--mu-overall", dest="mu_overall", type=float,
                        help="overall location parameter held fixed by the mixture solve")
    parser.add_argument("--replicates", type=int, help="replicates per configuration")
    parser.add_argument("--seed", dest="master_seed", type=int,
                        help="master seed; every stream derives from it")
    parser.add_argument("--threads", type=int, help="worker processes, 0 = auto")
    parser.add_argument("--out", dest="output_dir", type=Path,
                        help="output directory (default: results)")
    parser.add_argument("--version", action="version", version=f"citesim {__version__}")
    parser.set_defaults(**vars(RunConfig()))
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
    # A manifest of a sampled run from before stream versioning holds a seed
    # but no stream_version: its streams were version 1.
    stream = raw.get("stream_version", 1 if {"version", "master_seed"} <= raw.keys()
                     else STREAM_VERSION)
    if stream != STREAM_VERSION:
        raise ConfigError(f"config: stream_version {stream} in {path} differs from this "
                          f"library's {STREAM_VERSION}; the run cannot be reproduced")
    return {key: value for key, value in raw.items() if key in _CONFIG_KEYS}


def parse_config(argv=None) -> RunConfig:
    """Resolve a RunConfig: flags over the optional JSON file over the defaults."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        parser.set_defaults(**_load_config_file(args.config))
        args = parser.parse_args(argv)
    try:
        config = RunConfig(
            mode=args.mode,
            mu_values=tuple(float(v) for v in args.mu_values),
            p_values=tuple(float(v) for v in args.p_values),
            n_values=tuple(int(v) for v in args.n_values),
            sigma=float(args.sigma),
            mu_overall=float(args.mu_overall),
            replicates=int(args.replicates),
            master_seed=int(args.master_seed),
            threads=int(args.threads),
            output_dir=Path(args.output_dir),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from None
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
        config = [_fmt(ps.mu1), _fmt(ps.mu2), _fmt(ps.p1), _fmt(ps.p2), ps.n_world]
        for name, value in zip(INDICATOR_NAMES, record.similarity.tolist()):
            yield [*config, name, _fmt(value)]


def emit_reports(report: SweepReport, config: RunConfig, outdir: Path) -> dict:
    """Write every sweep artifact; returns {artifact: path}."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {"table1": outdir / "table1.csv", "table2": outdir / "table2.csv",
               "figure1": outdir / "figure1.csv", "records": outdir / "records.jsonl"}
    try:
        _write_csv(written["table1"], ["N", "indicator", "count", "percent"],
                   _table1_rows(report))
        _write_csv(written["table2"], ["indicator", "limit_side", "N", "min", "max", "mean", "sd"],
                   _table2_rows(report))
        _write_csv(written["figure1"], ["mu1", "mu2", "p1", "p2", "N", "indicator", "similarity"],
                   _figure1_rows(report))
        with open(written["records"], "w") as handle:
            for record in report.records:
                handle.write(json.dumps(record.to_dict(), separators=(",", ":")))
                handle.write("\n")
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
    """Inputs of a sampled run, with what its random streams depend on."""
    return {
        "mode": config.mode,
        "master_seed": config.master_seed,
        "replicates": config.replicates,
        "sigma": config.sigma,
        "mu_overall": config.mu_overall,
        "stream_version": STREAM_VERSION,
        # numpy Generator streams are only stable within one numpy version (NEP 19).
        "numpy_version": np.__version__,
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
    log.info(
        "running %d configurations, %d replicates each (%.3g draws total)",
        len(grid), config.replicates, total_draws(grid),
    )
    summaries = run_sweep(grid, config.master_seed, processes=config.threads)
    report = summarize(summaries)
    written = emit_reports(report, config, outdir)
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
        log.debug("traceback of the failed run", exc_info=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
