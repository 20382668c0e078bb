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
import platform
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .appendix_stats import (APPENDIX_DEMO, appendix_config, appendix_demo,
                             rank_sums_from_frequency, table4_example)
from .experiment import (
    DEFAULT_MU_VALUES,
    DEFAULT_N_VALUES,
    DEFAULT_P_VALUES,
    STREAM_VERSION,
    _fmt,
    generate_grid,
    run_sweep,
    summarize,
    total_draws,
    validate_grid,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_reports", "main"]

log = logging.getLogger(__name__)

MODES = ("sweep", "appendix", "table4")

# Keys a manifest.json echoes beyond the inputs, so a manifest can be fed
# straight back through --config to reproduce a run.
_MANIFEST_ECHO_KEYS = {"version", "configurations", "total_draws", "stream_version",
                       "numpy_version", "python_version", *APPENDIX_DEMO}


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
            raise ConfigError("threads: must be >= 0 (0 selects every CPU this process may use)")
        try:
            if self.mode == "sweep":
                validate_grid(self.mu_values, self.p_values, self.n_values,
                              self.sigma, self.mu_overall, self.replicates)
            elif self.mode == "appendix":
                appendix_config(self.sigma, self.mu_overall, self.replicates)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from None
        if self.output_dir.exists() and not self.output_dir.is_dir():
            raise ConfigError(f"output_dir: {self.output_dir} exists and is not a directory")


# Config-file keys: the RunConfig fields, which are also the flags' dests.
_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
# Keys that hold JSON numbers, which float() and int() would otherwise also
# take from a boolean or a string; the integer keys must not be truncated.
_INTEGER_KEYS = {"replicates", "n_values", "master_seed", "threads"}
_NUMBER_KEYS = {"sigma", "mu_overall", "mu_values", "p_values", *_INTEGER_KEYS}


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
    for key in sorted(_NUMBER_KEYS & raw.keys()):
        values = raw[key] if isinstance(raw[key], list) else [raw[key]]
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
            raise ConfigError(f"config: {key} must hold JSON numbers, got {raw[key]!r}")
        if key in _INTEGER_KEYS and any(isinstance(v, float) and not v.is_integer()
                                        for v in values):
            raise ConfigError(f"config: {key} must hold integers, got {raw[key]!r}")
    # A manifest of a sampled run from before stream versioning holds a seed
    # but no stream_version: its streams were version 1.
    stream = raw.get("stream_version", 1 if {"version", "master_seed"} <= raw.keys()
                     else STREAM_VERSION)
    if stream != STREAM_VERSION:
        raise ConfigError(f"config: stream_version {stream} in {path} differs from this "
                          f"library's {STREAM_VERSION}; the run cannot be reproduced")
    for key, running in _runtime_versions().items():
        if key in raw and raw[key] != running:
            log.warning("config: %s %s in %s differs from this run's %s; the artifacts "
                        "may differ from the recorded run's", key, raw[key], path, running)
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


def _write_csv(path: Path, header, rows=(), text=()) -> None:
    """A CSV file: the header, then rows, then rows already encoded as text."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
        handle.writelines(text)


def emit_reports(summaries, config: RunConfig, outdir: Path) -> dict:
    """Write every sweep artifact from the summaries; returns {artifact: path}."""
    table1, table2 = summarize(summaries)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {"table1": outdir / "table1.csv", "table2": outdir / "table2.csv",
               "figure1": outdir / "figure1.csv", "records": outdir / "records.jsonl"}
    try:
        # summarize built both tables in the order they are written.
        _write_csv(written["table1"], ["N", "indicator", "count", "percent"],
                   [[n_world, name, cell.count, cell.percent]
                    for (n_world, name), cell in table1.items()])
        _write_csv(written["table2"], ["indicator", "limit_side", "N", "min", "max", "mean", "sd"],
                   [[name, side, n_world, _fmt(row.minimum), _fmt(row.maximum), _fmt(row.mean),
                     _fmt(row.sd)] for (name, side, n_world), row in table2.items()])
        # Each summary's lines were encoded where it ran (ConfigSummary.encoded).
        encoded = [summary.encoded for summary in summaries]
        _write_csv(written["figure1"], ["mu1", "mu2", "p1", "p2", "N", "indicator", "similarity"],
                   text=[rows for _, rows in encoded])
        with open(written["records"], "w") as handle:
            handle.writelines(line for line, _ in encoded)
        written["manifest"] = _write_manifest(outdir, {
            **_run_inputs(config),
            "mu_values": list(config.mu_values),
            "p_values": list(config.p_values),
            "n_values": list(config.n_values),
            "configurations": len(summaries),
            "total_draws": total_draws([s.params for s in summaries]),
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
        **_runtime_versions(),
    }


def _runtime_versions() -> dict:
    """The versions a sampled run's artifacts depend on beyond the library's:
    numpy Generator streams are only stable within one numpy version (NEP 19),
    and count tables and quantiles come from the interpreter's math.erfc and
    statistics."""
    return {"numpy_version": np.__version__, "python_version": platform.python_version()}


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
        report = appendix_demo(sigma=config.sigma, mu_overall=config.mu_overall,
                               replicates=config.replicates, seed=config.master_seed)
        payload = asdict(report)
        payload.update({"replicates": config.replicates, "master_seed": config.master_seed})
        path = outdir / "appendix.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        _write_manifest(outdir, {**_run_inputs(config), **APPENDIX_DEMO})
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
    written = emit_reports(run_sweep(grid, config.master_seed, processes=config.threads),
                           config, outdir)
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
