#!/usr/bin/env python3
"""Benchmark of `citesim sweep`, run through the real command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, and every file the benchmark writes goes under ./.perfbench_out.

--trace 0 measures the end-to-end metrics.  Set-up (import, config
parsing, grid generation) is timed in several fresh interpreters, then
the workload's sweep runs as `python -m citesim.cli sweep ...` in a fresh
process, again and again for about S seconds.  Figures are medians over
those runs.

--trace 1 measures the per-layer metrics.  One serial run wraps the
public functions of cli, experiment, indicators, intervals and
distribution and records a span per call.  Untraced runs beside it give
the tracing overhead and, for multi-worker workloads, the parallel
efficiency.

Every run's artifacts are checked (checks.py) and records.jsonl must be
byte-identical across all runs of one invocation.  The last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count configurations.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from checks import HASHED, check_run  # noqa: E402
from child import PROBE_N_VALUES as PROBE_N, PROBE_REPLICATES  # noqa: E402
from spans import SpanTable  # noqa: E402

SETUP_REPEATS = 3
MIN_RUNS = 3
# A child that runs longer is killed and fails; the longest child (a traced
# serial sweep) takes about 10 s on a 2-core machine.
PROCESS_TIMEOUT_S = 60.0
# Self times plus unattributed time must reproduce the traced wall time to
# within this many seconds, and no self time may be below minus this.
SPAN_SLACK_S = 1e-3
# The standard grid: 1375 configurations per world size at R = 1000.
FULL_GRID_CONFIGS_PER_N = 1375
FULL_GRID_REPLICATES = 1000
# Baseline µs per replicate by world size (2-core x86 machine, seed commit),
# printed beside the measured table for comparison.
REFERENCE_US_PER_REPLICATE = {500: 163, 1000: 195, 5000: 276, 10000: 508, 50000: 2093}


@dataclass(frozen=True)
class Workload:
    mu: tuple
    p: tuple
    n: tuple
    replicates: int
    threads: int

    def cli_args(self, seed: int, outdir: Path, threads: int | None = None) -> list[str]:
        return [
            "sweep",
            "--mu-values", *map(str, self.mu),
            "--p-values", *map(str, self.p),
            "--n-values", *map(str, self.n),
            "--replicates", str(self.replicates),
            "--threads", str(self.threads if threads is None else threads),
            "--seed", str(seed),
            "--out", str(outdir),
        ]

    def configurations(self) -> int:
        """Grid size: ordered mu pairs x (p1, p2) pairs x N, all feasible.

        Feasibility needs p1*e^mu1 + p2*e^mu2 < e^1; workloads keep it.
        """
        pairs = [(a, b) for i, a in enumerate(self.mu) for b in self.mu[i + 1:]]
        for mu1, mu2 in pairs:
            if max(self.p) * (math.exp(mu1) + math.exp(mu2)) >= math.e:
                raise ValueError(f"workload holds an infeasible configuration at {mu1}, {mu2}")
        return len(pairs) * len(self.p) ** 2 * len(self.n)

    def draws(self) -> int:
        return self.configurations() // len(self.n) * self.replicates * sum(self.n)


DEFAULT_MU = tuple(round(0.9 + 0.02 * i, 10) for i in range(11))

# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "large-world": Workload(mu=(0.9, 1.0, 1.1), p=(0.05, 0.25), n=(5000, 10000, 50000),
                            replicates=200, threads=1),
    "small-world": Workload(mu=(0.9, 1.0, 1.1), p=(0.05, 0.15, 0.25), n=(500,),
                            replicates=1000, threads=1),
    "many-configs": Workload(mu=DEFAULT_MU, p=(0.05, 0.15, 0.25), n=(500, 1000),
                             replicates=40, threads=2),
}

END_TO_END = (
    ("wall_s", "s"),
    ("configs_per_s", "1/s"),
    ("draws_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("experiment.replicate_statistics.us_per_replicate", "us"),
    *((f"experiment.replicate_statistics.us_per_replicate.n{n}", "us") for n in PROBE_N),
    ("experiment.replicate_statistics.self_us_per_replicate", "us"),
    ("experiment.seeding_us_per_replicate", "us"),
    ("experiment.derive_seed.count", "count"),
    ("indicators.survival_counts.count", "count"),
    ("indicators.survival_counts.us_per_call", "us"),
    ("experiment.run_config.self_s", "s"),
    ("experiment.run_config.p50_ms", "ms"),
    ("experiment.run_config.tail_ms", "ms"),
    ("experiment.run_config.tail_pct", "%"),
    ("intervals.empirical_interval.count", "count"),
    ("intervals.empirical_interval.s", "s"),
    ("intervals.similarity.count", "count"),
    ("intervals.limit_discrepancy.count", "count"),
    ("experiment.summarize.s", "s"),
    ("cli.emit_reports.s", "s"),
    ("cli.emit_reports.bytes", "bytes"),
    ("experiment.run_sweep.parallel_efficiency", "ratio"),
    ("experiment.run_sweep.idle_s", "s"),
    ("experiment.generate_grid.s", "s"),
    ("cli.parse_config.s", "s"),
    ("distribution.rest_of_world_location.count", "count"),
    ("distribution.pmf.count", "count"),
    ("distribution.pmf.s", "s"),
    ("distribution.cdf.count", "count"),
    ("distribution.cdf.s", "s"),
    ("distribution.sample.count", "count"),
    ("distribution.sample.s", "s"),
    ("experiment.replicates", "count"),
    ("experiment.draws", "count"),
    ("experiment.full_grid_projected_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Proc:
    code: int
    wall_s: float
    maxrss_kb: int
    log: Path


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CITESIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> Proc:
    """Run argv to completion in its own process group.

    The wall time spans process creation to reaping.  wait4 returns the
    process's own rusage, whose ru_maxrss is the largest peak RSS of the
    process and of every descendant it waited for (its pool workers).
    """
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
    timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # workers orphaned by a killed run; normally the group is empty
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    return Proc(proc.returncode, wall, usage.ru_maxrss, log)


def log_tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


class Verdicts:
    """Checks every run of one invocation against the first clean one."""

    def __init__(self, expected: int):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.hashes: dict = {}
        self.problems: list[str] = []

    def add(self, label: str, proc: Proc, outdir: Path) -> None:
        check = check_run(outdir, proc.code, self.expected, self.reference)
        self.attempted += check.expected
        self.failed += check.failed
        if check.failed and proc.code != 0:
            check.problems.append(log_tail(proc.log))
        if self.reference is None and check.failed == 0:
            self.reference, self.hashes = check.lines, check.hashes
        elif check.hashes and self.hashes and check.hashes != self.hashes:
            check.problems.append("artifact hashes differ from an earlier run")
        self.problems += [f"{label}: {p}" for p in check.problems[:5]]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path):
    verdicts = Verdicts(workload.configurations())
    setups = []
    for i in range(SETUP_REPEATS):
        log = workdir / f"setup{i}.log"
        proc = spawn([sys.executable, str(HERE / "child.py"), "setup",
                      *workload.cli_args(seed, workdir / "setup")], log)
        if proc.code != 0:
            verdicts.problems.append(f"setup {i}: exit {proc.code}\n{log_tail(log)}")
            break
        reading = json.loads(log.read_text().splitlines()[-1])
        if reading["configurations"] != verdicts.expected:
            verdicts.problems.append(
                f"setup {i}: grid has {reading['configurations']} configurations")
        setups.append(reading["setup_s"])

    walls, rss = [], []
    start = time.perf_counter()
    while True:
        outdir = workdir / f"run{len(walls)}"
        proc = spawn([sys.executable, "-m", "citesim.cli",
                      *workload.cli_args(seed, outdir)], workdir / f"run{len(walls)}.log")
        verdicts.add(f"run {len(walls)}", proc, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        walls.append(proc.wall_s)
        rss.append(proc.maxrss_kb)
        elapsed = time.perf_counter() - start
        if proc.code != 0 or (len(walls) >= MIN_RUNS
                              and elapsed + statistics.median(walls) > seconds):
            break

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "configs_per_s": verdicts.expected / wall,
        "draws_per_s": workload.draws() / wall,
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": statistics.median(rss) / 1024.0,
    }
    notes = [f"runs {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in walls),
             f"setups {len(setups)}: setup_s " + " ".join(f"{s:.3f}" for s in setups)]
    return metrics, verdicts, notes


def load_spans(path: Path):
    data = json.loads(path.read_text())
    table = SpanTable(data)
    return table, data["workload_spans"]


def tail_sample(values):
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, 1)  # 1-based order statistic
    return 100.0 * rank / n, ordered[rank - 1]


def traced(workload: Workload, seed: int, workdir: Path):
    verdicts = Verdicts(workload.configurations())
    child = [sys.executable, str(HERE / "child.py"), "cli"]
    runs = {}
    # Untraced serial runs on both sides of the traced one, so a drift in
    # machine speed during the invocation cancels out of the overhead ratio.
    plan = [("untraced", "main", -1, 1), ("traced", "full", seed, 1),
            ("untraced2", "main", -1, 1)]
    if workload.threads > 1:
        plan.append(("parallel", "main", -1, workload.threads))
    for label, level, probe_seed, threads in plan:
        outdir = workdir / label
        spans_path = workdir / f"{label}.spans.json"
        proc = spawn([*child, str(spans_path), level, str(probe_seed),
                      *workload.cli_args(seed, outdir, threads)], workdir / f"{label}.log")
        verdicts.add(label, proc, outdir)
        artifact_bytes = sum(f.stat().st_size for f in outdir.glob("*") if f.is_file())
        shutil.rmtree(outdir, ignore_errors=True)
        if proc.code != 0 or not spans_path.is_file():
            return {}, verdicts, []
        runs[label] = (proc, *load_spans(spans_path), artifact_bytes)

    proc, table, n_main, artifact_bytes = runs["traced"]
    main, probe = table.subset(0, n_main), table.subset(n_main, len(table))
    rs = main.mask("experiment.replicate_statistics")
    replicates = int(main.replicates[rs].sum())
    draws = int((main.replicates[rs] * main.n_world[rs]).sum())
    seeding = (main.children_of(rs)
               & (main.mask("experiment.derive_seed") | main.mask("numpy.random.default_rng")))
    run_config_ms = main.duration[main.mask("experiment.run_config")] * 1e3
    tail_pct, tail_ms = tail_sample(run_config_ms)

    by_n = {}
    seed_spans = probe.mask("experiment.derive_seed") | probe.mask("numpy.random.default_rng")
    for n in PROBE_N:
        sel = probe.mask("experiment.replicate_statistics") & (probe.n_world == n)
        kids = probe.children_of(sel)
        per_rep = 1e6 / int(probe.replicates[sel].sum())
        by_n[n] = {
            "total": probe.duration[sel].sum() * per_rep,
            "seeding": probe.duration[kids & seed_spans].sum() * per_rep,
            "survival_counts":
                probe.duration[kids & probe.mask("indicators.survival_counts")].sum() * per_rep,
            "self": probe.self_time[sel].sum() * per_rep,
        }

    untraced = [runs[label][1] for label in ("untraced", "untraced2")]
    serial_sweep = statistics.mean(t.total("experiment.run_sweep") for t in untraced)
    parallel_sweep = runs["parallel"][1].total("experiment.run_sweep") if "parallel" in runs \
        else serial_sweep
    workers = workload.threads
    untraced_main = statistics.mean(t.total("cli.main") for t in untraced)
    top = table.top_level()
    unattributed = proc.wall_s - float(table.duration[top].sum())

    metrics = {
        "experiment.replicate_statistics.us_per_replicate":
            main.duration[rs].sum() / replicates * 1e6,
        **{f"experiment.replicate_statistics.us_per_replicate.n{n}": by_n[n]["total"]
           for n in PROBE_N},
        "experiment.replicate_statistics.self_us_per_replicate":
            main.self_time[rs].sum() / replicates * 1e6,
        "experiment.seeding_us_per_replicate": main.duration[seeding].sum() / replicates * 1e6,
        "experiment.derive_seed.count": main.count("experiment.derive_seed"),
        "indicators.survival_counts.count": main.count("indicators.survival_counts"),
        "indicators.survival_counts.us_per_call":
            main.total("indicators.survival_counts")
            / max(main.count("indicators.survival_counts"), 1) * 1e6,
        "experiment.run_config.self_s": main.self_total("experiment.run_config"),
        "experiment.run_config.p50_ms": statistics.median(run_config_ms),
        "experiment.run_config.tail_ms": tail_ms,
        "experiment.run_config.tail_pct": tail_pct,
        "intervals.empirical_interval.count": main.count("intervals.empirical_interval"),
        "intervals.empirical_interval.s": main.total("intervals.empirical_interval"),
        "intervals.similarity.count": main.count("intervals.similarity"),
        "intervals.limit_discrepancy.count": main.count("intervals.limit_discrepancy"),
        "experiment.summarize.s": main.total("experiment.summarize"),
        "cli.emit_reports.s": main.total("cli.emit_reports"),
        "cli.emit_reports.bytes": artifact_bytes,
        "experiment.run_sweep.parallel_efficiency": serial_sweep / (workers * parallel_sweep),
        "experiment.run_sweep.idle_s": workers * parallel_sweep - serial_sweep,
        "experiment.generate_grid.s": main.total("experiment.generate_grid"),
        "cli.parse_config.s": main.total("cli.parse_config"),
        "distribution.rest_of_world_location.count":
            main.count("distribution.rest_of_world_location"),
        **{f"distribution.{fn}.{kind}": (main.count if kind == "count" else main.total)(
            f"distribution.{fn}") for fn in ("pmf", "cdf", "sample") for kind in ("count", "s")},
        "experiment.replicates": replicates,
        "experiment.draws": draws,
        "experiment.full_grid_projected_s": sum(
            FULL_GRID_CONFIGS_PER_N * FULL_GRID_REPLICATES * by_n[n]["total"] / 1e6
            for n in PROBE_N),
        "trace.unattributed_s": unattributed,
        "trace.overhead_ratio": main.total("cli.main") / untraced_main - 1.0,
    }

    if replicates != workload.configurations() * workload.replicates \
            or draws != workload.draws():
        verdicts.problems.append(f"traced run made {replicates} replicates / {draws} draws")
    # Layers partition the traced wall time: no self time is negative (a
    # child never outlasts its parent), the spans fit inside the process's
    # lifetime, and self times plus the unattributed rest sum to the wall.
    self_sum = float(table.self_time.sum())
    if (abs(self_sum + unattributed - proc.wall_s) > SPAN_SLACK_S or unattributed < 0
            or float(table.self_time.min()) < -SPAN_SLACK_S):
        verdicts.problems.append(
            f"span self times {self_sum:.6f} s (least {table.self_time.min():.6f} s) + "
            f"unattributed {unattributed:.6f} s != traced wall {proc.wall_s:.6f} s")

    notes = layer_notes(table, unattributed, proc.wall_s, by_n)
    return metrics, verdicts, notes


def layer_notes(table, unattributed, wall, by_n) -> list[str]:
    notes = [f"traced wall {wall:.4f} s = span self times + unattributed "
             f"(slack {SPAN_SLACK_S} s):"]
    totals = {}
    for i, name in enumerate(table.names):
        if (table.name == i).any():
            totals[name] = float(table.self_time[table.name == i].sum())
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        notes.append(f"  self {name:45s} {value:10.4f} s  {100 * value / wall:5.1f}%")
    notes.append(f"  {'trace.unattributed':50s} {unattributed:10.4f} s  "
                 f"{100 * unattributed / wall:5.1f}%")
    notes.append(f"us per replicate by world size (probe, {PROBE_REPLICATES} replicates; "
                 "ref = baseline total):")
    notes.append(f"  {'N':>6} {'total':>8} {'seeding':>8} {'survival':>8} {'self':>8} {'ref':>6}")
    for n, row in by_n.items():
        notes.append(f"  {n:>6} {row['total']:8.1f} {row['seeding']:8.1f} "
                     f"{row['survival_counts']:8.1f} {row['self']:8.1f} "
                     f"{REFERENCE_US_PER_REPLICATE[n]:>6}")
    return notes


def provenance(seed: int, workload: str, trace: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of a .git directory at the checkout root, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "citesim" / "cli.py").is_file():
        print(f"perfbench: no citesim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = fresh_dir(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        metrics, verdicts, notes = traced(workload, args.seed, workdir)
        units = dict(PER_LAYER)
    else:
        metrics, verdicts, notes = end_to_end(workload, args.seed, args.seconds, workdir)
        units = dict(END_TO_END)

    print("provenance " + json.dumps(provenance(args.seed, args.workload, args.trace)))
    for name in HASHED:
        print(f"sha256 {name} {verdicts.hashes.get(name)}")
    for line in notes:
        print(line)
    for problem in verdicts.problems:
        print(f"problem {problem}")
    error_rate = verdicts.failed / verdicts.attempted
    print(f"error_rate {error_rate:.6g} ({verdicts.failed} of {verdicts.attempted} "
          f"configurations failed)")
    for name, unit in units.items():
        print(f"metric {name} = {metrics.get(name, math.nan):.6g} {unit}")

    correct = (verdicts.failed == 0 and not verdicts.problems and set(metrics) == set(units)
               and all(math.isfinite(v) for v in metrics.values()))
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
