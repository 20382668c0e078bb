"""Mutation gate: every mutant listed here must make a test fail.

    python3 mutants/run.py

A mutant is one textual edit of a file of the repository: an old text,
which must occur exactly once in the file, and the new text put in its
place, plus the tests expected to kill it.  For each mutant the runner
copies src/, tests/, README.md and pyproject.toml (which holds the pytest
settings) to a temporary directory, applies the edit there, and runs the
named tests.  A mutant they do not kill gets the whole tier-1 suite.

Before any mutant runs, every old text is checked against the source tree
and the named tests must pass on an unmutated copy, so a stale entry or a
test that fails anyway cannot pass for a kill.  The exit status is 0 when
every mutant is killed, 1 otherwise.  Tier-1 does not run this gate; it
has its own tests (python3 -m pytest mutants/tests).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 900  # one pytest run; tier-1 takes about a minute on 2 cores


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


EXPERIMENT = "src/citesim/experiment.py"
T_EXPERIMENT = "tests/test_experiment.py"
T_DISTRIBUTION = "tests/test_distribution.py"
PIPELINE = f"{T_EXPERIMENT}::TestReplicateStatistics::test_matches_public_indicator_pipeline"
INTERVAL_ORACLES = f"{T_EXPERIMENT}::TestRunConfig::test_arrays_match_the_interval_functions"
INVALID_GRID = "tests/test_cli.py::TestExitCodes::test_invalid_grid_is_config_error"
GOLDEN_SWEEP = "tests/test_cli.py::TestModes::test_golden_sweep_hashes"
MEMORY_EDGE = f"{T_EXPERIMENT}::TestGrid::test_memory_bound_edge"

MUTANTS = (
    Mutant(
        "limit_discrepancies: sign of the upper side flipped",
        "src/citesim/intervals.py",
        "    diff = formula * _SIDES - model * _SIDES\n",
        "    diff = (formula * _SIDES - model * _SIDES) * [1.0, -1.0]\n",
        ("tests/test_intervals.py::TestLimitDiscrepancy::test_conservative_formula",
         INTERVAL_ORACLES),
    ),
    Mutant(
        "empirical_limits: rank off by one",
        "src/citesim/intervals.py",
        "    return values[..., [rank - 1, n - rank]]\n",
        "    return values[..., [rank, n - rank - 1]]\n",
        ("tests/test_intervals.py::TestEmpiricalInterval::test_rank_formula_at_one_hundred",
         INTERVAL_ORACLES),
    ),
    Mutant(
        "tie_credit: full credit at the cutoff (frac = 1)",
        "src/citesim/indicators.py",
        "    frac = (q - above) / (upto - under)\n",
        "    frac = np.ones(np.shape(q - above))\n",
        ("tests/test_indicators.py::TestTopCredit::test_boundary_tie_shares_equally",
         PIPELINE),
    ),
    Mutant(
        "tie_credit: share range check dropped",
        "src/citesim/indicators.py",
        "    if not (shares.min() > 0 and shares.max() <= 100):\n",
        "    if False:\n",
        ("tests/test_indicators.py::TestTopCredit::test_share_must_lie_in_0_100",),
    ),
    Mutant(
        "replicate_statistics: +1 on the above-table values",
        EXPERIMENT,
        "        tails = np.concatenate((tail1, tail2)) - 1.0\n",
        "        tails = np.concatenate((tail1, tail2)) + 0.0\n",
        (PIPELINE,),
    ),
    Mutant(
        "replicate_statistics: every block through _value_axis",
        EXPERIMENT,
        "        if (t == table_end).any():  # a cutoff in the lumped cell\n",
        "        if True:\n",
        (f"{T_EXPERIMENT}::TestReplicateStatistics::test_light_tails_never_take_the_exact_path",),
    ),
    Mutant(
        "replicate_statistics: no block through _value_axis",
        EXPERIMENT,
        "        if (t == table_end).any():  # a cutoff in the lumped cell\n",
        "        if False:\n",
        (f"{T_EXPERIMENT}::TestReplicateStatistics::test_cutoff_in_lumped_cell_takes_exact_path",
         PIPELINE),
    ),
    Mutant(
        "replicate_statistics: the tail values' log sums dropped",
        EXPERIMENT,
        "            for k, weights in enumerate((tails, tail_logs, tail_logs * tail_logs)):\n",
        "            for k, weights in enumerate((tails,)):\n",
        (PIPELINE,),
    ),
    Mutant(
        "replicate_statistics: V instead of 0 in the lumped cell's column",
        EXPERIMENT,
        "            c[-1] = 0.0\n",
        "            c[-1] = table_end\n",
        (f"{T_EXPERIMENT}::TestReplicateStatistics::test_lumped_and_value_axis_paths_agree",
         PIPELINE),
    ),
    Mutant(
        "ndtr: 0.5 * dropped",
        "src/citesim/_special.py",
        "    out = 0.5 * erfc.reshape(w.shape)\n",
        "    out = erfc.reshape(w.shape)\n",
        ("tests/test_special.py::TestNdtr",),
    ),
    Mutant(
        "run_config: the geometric mean read from the log_sd row",
        EXPERIMENT,
        "    mean[:, 1] = np.expm1(values[:, 1]).sum(axis=-1) / ps.replicates\n",
        "    mean[:, 1] = np.expm1(values[:, 5]).sum(axis=-1) / ps.replicates\n",
        (INTERVAL_ORACLES,),
    ),
    Mutant(
        "ConfigSummary.__setstate__: unpickled arrays left writeable",
        EXPERIMENT,
        "        self.__post_init__()\n",
        "",
        (f"{T_EXPERIMENT}::TestRunConfig::test_pickle_round_trip_keeps_arrays_read_only",
         f"{T_EXPERIMENT}::TestSweep::test_summaries_come_back_as_run_config_makes_them"),
    ),
    Mutant(
        "_run_configs: each configuration gets the previous one's text",
        EXPERIMENT,
        "    for summary in summaries:\n"
        "        summary.encoded  # cached on the summary, so it pickles with it\n",
        "    texts = [summary.encoded for summary in summaries]\n"
        "    for summary, text in zip(summaries, texts[-1:] + texts[:-1]):\n"
        "        summary.__dict__['encoded'] = text\n",
        (f"{T_EXPERIMENT}::TestSweep::test_summaries_come_back_as_run_config_makes_them",
         "tests/test_cli.py::TestModes::test_records_and_figure_rows_are_the_summaries_encoded"),
    ),
    Mutant(
        "appendix_demo: the top-10% row read for the top-1% shares",
        "src/citesim/appendix_stats.py",
        "    share1, share2 = replicate_statistics(ps, seed)[:, 2]  # the top-1% row\n",
        "    share1, share2 = replicate_statistics(ps, seed)[:, 3]  # the top-1% row\n",
        ("tests/test_cli.py::TestModes::test_golden_appendix_hash",),
    ),
    Mutant(
        "rest_of_world_location: the rest's share taken as 1 - p1",
        "src/citesim/distribution.py",
        "    return math.log(arg / (1.0 - p1 - p2))\n",
        "    return math.log(arg / (1.0 - p1))\n",
        ("tests/test_distribution.py::TestMixture::test_worked_value",
         "tests/test_distribution.py::TestMixture::test_round_trip_identity_single"),
    ),
    Mutant(
        "_load_config_file: the stream_version refusal dropped",
        "src/citesim/cli.py",
        "    if stream != STREAM_VERSION:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestModes::test_manifest_of_other_streams_is_refused",),
    ),
    Mutant(
        "replicate_statistics: the sample sd divided by n, not n - 1",
        EXPERIMENT,
        "        values[:, 5, block] = np.sqrt(np.maximum(ss, 0.0) / (sizes - 1))\n",
        "        values[:, 5, block] = np.sqrt(np.maximum(ss, 0.0) / sizes)\n",
        (PIPELINE,
         f"{T_EXPERIMENT}::TestReplicateStatistics::test_log_stats_feed_the_public_interval_op"),
    ),
    Mutant(
        "intervals: 0.95 for the upper quantile",
        "src/citesim/intervals.py",
        "_UPPER_QUANTILE = 0.975\n",
        "_UPPER_QUANTILE = 0.95\n",
        ("tests/test_intervals.py::TestLogMeanInterval::test_matches_scipy_interval",
         "tests/test_intervals.py::TestProportionInterval::test_hand_computed_half_width"),
    ),
    Mutant(
        "derive_seed: the payload's replicate field 1",
        EXPERIMENT,
        '    payload = f"{master_seed}:{config_index}:0:world".encode()\n',
        '    payload = f"{master_seed}:{config_index}:1:world".encode()\n',
        (f"{T_EXPERIMENT}::TestDeriveSeed::test_stream_version_2_payload",
         GOLDEN_SWEEP),
    ),
    Mutant(
        "tie_credit: floor for ceil in the cutoff threshold",
        "src/citesim/indicators.py",
        "    t = (below > (n - np.ceil(q).astype(below.dtype))[..., None]).argmax(axis=-1) - 1\n",
        "    t = (below > (n - np.floor(q).astype(below.dtype))[..., None]).argmax(axis=-1) - 1\n",
        ("tests/test_indicators.py::TestTopCredit::test_against_brute_force_oracle",),
    ),
    Mutant(
        "summarize: world sizes in decreasing order",
        EXPERIMENT,
        "    n_values = sorted({r.params.n_world for r in records})\n",
        "    n_values = sorted({r.params.n_world for r in records}, reverse=True)\n",
        (GOLDEN_SWEEP,),
    ),
    Mutant(
        "summarize: NaN discrepancies kept",
        EXPERIMENT,
        "        kept = ~np.isnan(disc)\n",
        "        kept = np.full(disc.shape, True)\n",
        (f"{T_EXPERIMENT}::TestSummarize::test_nan_discrepancies_skipped",),
    ),
    Mutant(
        "rank_sums_from_frequency: tie midpoints one rank low",
        "src/citesim/appendix_stats.py",
        "    midpoints = np.cumsum(block) - (block - 1) / 2.0\n",
        "    midpoints = np.cumsum(block) - (block + 1) / 2.0\n",
        ("tests/test_appendix_stats.py::TestRankSums::test_worked_example_exact",
         "tests/test_cli.py::TestModes::test_golden_table4_hash"),
    ),
    Mutant(
        "rest_of_world_location: another exception caught for the overflow",
        "src/citesim/distribution.py",
        "    except OverflowError:\n",
        "    except ZeroDivisionError:\n",
        (f"{T_DISTRIBUTION}::TestMixture::test_location_beyond_exp_range_is_value_error",),
    ),
    Mutant(
        "appendix_config: the rest-of-world location left out of the checks",
        "src/citesim/appendix_stats.py",
        "    check_configurations([ps], [mu, ps.mu0])\n",
        "    check_configurations([ps], [mu])\n",
        (INVALID_GRID,),
    ),
    Mutant(
        "REPLICATE_BLOCK: 32 replicates a block",
        EXPERIMENT,
        "REPLICATE_BLOCK = 64  # bounds the histogram arrays held at once\n",
        "REPLICATE_BLOCK = 32  # bounds the histogram arrays held at once\n",
        (GOLDEN_SWEEP,),
    ),
    Mutant(
        "_fmt: seven significant digits",
        EXPERIMENT,
        '    return format(value, ".6g")\n',
        '    return format(value, ".7g")\n',
        (GOLDEN_SWEEP, "tests/test_cli.py::TestModes::test_golden_table4_hash"),
    ),
    Mutant(
        "formula_limits: n, not n - 1, degrees of freedom",
        "src/citesim/intervals.py",
        "    half[..., 0] = stdtrit(n - 1, _UPPER_QUANTILE) * log_sd / np.sqrt(n)\n",
        "    half[..., 0] = stdtrit(n, _UPPER_QUANTILE) * log_sd / np.sqrt(n)\n",
        ("tests/test_intervals.py::TestLogMeanInterval::test_matches_scipy_interval",
         INTERVAL_ORACLES),
    ),
    Mutant(
        "check_locations: the low-location check dropped",
        "src/citesim/distribution.py",
        "    if not TABLE_TAIL_MASS * ndtr((low - _LOG_HALF) / sigma) > 0.0:\n",
        "    if False:\n",
        (f"{T_DISTRIBUTION}::TestCheckLocations::test_low_location_needs_mass_above_one_half",
         INVALID_GRID),
    ),
    Mutant(
        "generate_grid: rest locations left out of the location bounds",
        EXPERIMENT,
        "        locations.append(mu0)\n",
        "",
        (INVALID_GRID,),
    ),
    Mutant(
        "generate_grid: each world size solves its rest location again",
        EXPERIMENT,
        "            ps.__dict__[\"mu0\"] = mu0\n",
        "            ps.mu0\n",
        (f"{T_EXPERIMENT}::TestGrid::test_one_solve_per_pair_and_shares",),
    ),
    Mutant(
        "ParameterSet.mu0: a plain property, solved on every read",
        EXPERIMENT,
        "    @cached_property\n    def mu0(self) -> float:\n",
        "    @property\n    def mu0(self) -> float:\n",
        ("tests/test_cli.py::TestExitCodes::test_sweep_builds_its_grid_once",),
    ),
    Mutant(
        "check_configurations: the draws counted three times over",
        EXPERIMENT,
        "    check_locations(min(locations), high, sigma, total_draws(sets))\n",
        "    check_locations(min(locations), high, sigma, 3 * total_draws(sets))\n",
        ("tests/test_cli.py::TestExitCodes::test_accepted_grid_runs",),
    ),
    Mutant(
        "check_configurations: the memory bound dropped",
        EXPERIMENT,
        "    if not largest <= MAX_ARRAY_VALUES:\n",
        "    if False:\n",
        (MEMORY_EDGE, INVALID_GRID),
    ),
    Mutant(
        "check_configurations: the lumped cell always TABLE_TAIL_MASS",
        EXPERIMENT,
        "    lumped = max(TABLE_TAIL_MASS, float(_upper_tail(MAX_TABLE_TOP + 0.5, high, sigma)))\n",
        "    lumped = TABLE_TAIL_MASS\n",
        (f"{T_EXPERIMENT}::TestGrid::test_memory_bound_takes_the_mass_beyond_a_cut_table",),
    ),
    Mutant(
        "RunConfig.grid: the sweep's grid built in every mode",
        "src/citesim/cli.py",
        "        if self.mode == \"sweep\":\n",
        "        if True:\n",
        ("tests/test_cli.py::TestExitCodes::test_grid_flags_are_read_in_sweep_mode_only",),
    ),
    Mutant(
        "_execute: the appendix configuration built again",
        "src/citesim/cli.py",
        "        payload = {**asdict(appendix_demo(config.grid[0], config.master_seed)),\n",
        "        payload = {**asdict(appendix_demo(appendix_config(\n"
        "            config.sigma, config.mu_overall, config.replicates), config.master_seed)),\n",
        ("tests/test_cli.py::TestExitCodes::test_appendix_builds_its_configuration_once",),
    ),
    Mutant(
        "_execute: the grid built again",
        "src/citesim/cli.py",
        "    log.info(\"running %d configurations, %d replicates each (%.3g draws total)\",\n",
        "    config.grid = generate_grid(**{name: getattr(config, name) for name in (\n"
        "        \"mu_values\", \"p_values\", \"n_values\", \"sigma\", \"mu_overall\", \"replicates\")})\n"
        "    log.info(\"running %d configurations, %d replicates each (%.3g draws total)\",\n",
        ("tests/test_cli.py::TestExitCodes::test_sweep_builds_its_grid_once",),
    ),
    Mutant(
        "RunConfig.validate: an OverflowError escapes as a traceback",
        "src/citesim/cli.py",
        "        except (ValueError, OverflowError) as exc:\n",
        "        except ValueError as exc:\n",
        (INVALID_GRID,),
    ),
)


def mutated(mutant: Mutant, text: str) -> str:
    """text with the mutant's edit made; ValueError unless its old text
    occurs exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in "
                         f"{mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def copy_tree(source: Path, dest: Path) -> None:
    """Copy what the tests need (COPIED) from source into dest."""
    for name in COPIED:
        if (source / name).is_dir():
            shutil.copytree(source / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source / name, dest / name)


def pytest(root: Path, tests=()) -> int:
    """Exit status of pytest on the tree at root, stopping at the first
    failure; tier-1 when no tests are named.  A run that times out counts
    as failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def verdict(mutant: Mutant, source: Path = ROOT, run=pytest) -> str:
    """'killed' by the named tests, 'killed by tier-1' only, or 'survived'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        copy_tree(source, root)
        target = root / mutant.path
        target.write_text(mutated(mutant, target.read_text()))
        if run(root, mutant.tests) != 0:
            return "killed"
        if run(root) != 0:
            return "killed by tier-1"
        return "survived"


def main(mutants=MUTANTS, source: Path = ROOT, run=pytest) -> int:
    started = time.monotonic()
    stale = []
    for mutant in mutants:
        try:
            mutated(mutant, (source / mutant.path).read_text())
        except ValueError as exc:
            stale.append(str(exc))
    if stale:
        print("\n".join(stale))
        return 1
    named = sorted({test for mutant in mutants for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(source, Path(tmp))
        if run(Path(tmp), named) != 0:
            print("the named tests do not all pass on the unmutated tree")
            return 1
    survivors = 0
    for mutant in mutants:
        start = time.monotonic()
        result = verdict(mutant, source, run)
        survivors += result == "survived"
        print(f"{result:<17} {time.monotonic() - start:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed in "
          f"{time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
