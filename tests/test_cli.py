"""CLI tests: configuration resolution, artifact shapes, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import logging
import math
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citesim
from citesim import cli, experiment, intervals
from citesim.appendix_stats import appendix_config
from citesim.cli import ConfigError, RunConfig, _build_parser, emit_reports, main, parse_config
from citesim.distribution import count_table, rest_of_world_location, table_top
from citesim.experiment import (
    INDICATOR_NAMES,
    FORMULA_INDICATOR_NAMES,
    _fmt,
    generate_grid,
    run_config,
)
from helpers import fake_summary

ALL_N = (500, 1000, 5000, 10000, 50000)

# A fixed small sweep and its artifact hashes, taken at stream version 2
# with Python 3.11.7 and numpy 2.4.6.  The N=60 rows tie often at the
# percentile cutoffs, which exercises the fractional tie-credit rule.
# numpy Generator streams are only stable within one numpy version
# (NEP 19).  A change that alters these hashes must say so in CHANGES.md.
# records.jsonl was re-pinned when blocks came to be reduced on the count
# table's own axis: the ln(1 + c) sums are taken in another order, which
# moves the geo entries (mean, empirical, model, formula, discrepancy) and
# similarity.geo in their last bits; no other field and no other file moved.
GOLDEN_ARGS = [
    "sweep", "--mu-values", "0.9", "0.96", "1.1", "--p-values", "0.05", "0.25",
    "--n-values", "60", "500", "--replicates", "40", "--seed", "3", "--threads", "1",
]
GOLDEN_SHA256 = {
    "records.jsonl": "d2574c1ec5fb79bb07b038c3deb8d2d70a286a18e073f21c2e48323d1959f5e2",
    "table1.csv": "e6908b8889891e51eafd03f3ef73a0aef03a01023c4b85a96536336dc1ec070e",
    "table2.csv": "c826d8e472362ec7a4fd26b2102fd35bbc9ab1e9e95d5437959d055aa9e6747f",
    "figure1.csv": "04f70835570c3b1d6a5258f82584a623e1a08386b89d72d8cdb1a74820054efa",
}
# A sweep at sigma 2, where the heavier tail puts one block's top-1% cutoff
# among the values above the count table (the exact value axis).
GOLDEN_SIGMA2_ARGS = [
    "sweep", "--sigma", "2", "--mu-values", "0.9", "1.0", "--p-values", "0.1", "0.2",
    "--n-values", "60", "500", "--replicates", "40", "--seed", "1", "--threads", "1",
]
GOLDEN_SIGMA2_SHA256 = {
    "records.jsonl": "6a6dda302b1e3bb447b9e7b94b580922362c4b76a435cc77fb611a6f930db764",
    "table1.csv": "e5d23f6fc3d72313fee18a7b24c88d2f4ee6d5524294235a90f1686423aff7fc",
    "table2.csv": "2230e934e146021fca5370a41527ecb3aa780fff745ce14940d615810f7c0bcf",
}
# The appendix demo (both countries at one location, unequal sizes) under
# the same Python and numpy versions.
GOLDEN_APPENDIX_ARGS = ["appendix", "--replicates", "200", "--seed", "3"]
GOLDEN_APPENDIX_SHA256 = "0c9c05910897c349ea83d03014970573068653daf85104d7728822ee5b7d534a"
# The worked Table 4 rank sums, which sample nothing.
GOLDEN_TABLE4_SHA256 = "ac88d586f2665e285153b152599656cc4cf16453643e659f6694711d0aaa7cd6"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParseConfig:
    def test_defaults_reproduce_standard_grid(self):
        config = parse_config([])
        assert config.mode == "sweep"
        assert config.replicates == 1000
        assert len(config.mu_values) == 11
        assert config.n_values == ALL_N
        assert len(generate_grid(config.mu_values, config.p_values, config.n_values)) == 6875

    def test_grid_restriction_flags(self):
        config = parse_config(["--replicates", "200", "--n-values", "5000"])
        assert config.replicates == 200
        assert config.n_values == (5000,)
        assert len(generate_grid(config.mu_values, config.p_values, config.n_values)) == 1375

    def test_config_file_and_flag_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"replicates": 100, "n_values": [500], "master_seed": 5}))
        config = parse_config(["--config", str(path)])
        assert (config.replicates, config.n_values, config.master_seed) == (100, (500,), 5)
        overridden = parse_config(["--config", str(path), "--replicates", "200"])
        assert overridden.replicates == 200
        assert overridden.n_values == (500,)

    def test_unknown_config_key_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"replicate": 100}))
        with pytest.raises(ConfigError, match="replicate"):
            parse_config(["--config", str(path)])
        path.write_text(json.dumps({"mu_range": [0.9, 1.1]}))
        with pytest.raises(ConfigError, match="mu_range"):
            parse_config(["--config", str(path)])

    def test_config_file_value_of_wrong_type(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_values": 500}))
        with pytest.raises(ConfigError):
            parse_config(["--config", str(path)])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(["--config", str(tmp_path / "absent.json")])

    def test_replicate_floor(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_config(["--replicates", "10"])

    def test_bad_flag_value(self):
        with pytest.raises(ConfigError):
            parse_config(["--replicates", "soon"])

    @pytest.mark.parametrize("key,value", [
        ("replicates", 40.9), ("n_values", [500.7]), ("n_values", [True]),
        ("master_seed", True), ("threads", 1.5), ("threads", True),
    ])
    def test_config_file_integers_not_truncated(self, key, value, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            parse_config(["--config", str(path)])

    @pytest.mark.parametrize("key,value", [
        ("sigma", True), ("mu_values", [True, 1.5]), ("mu_overall", True),
        ("p_values", [0.1, False]), ("sigma", "2"), ("p_values", [0.1, "0.2"]),
        ("mu_overall", "1"), ("mu_values", ["0.9", "1.0"]), ("replicates", "40"),
        ("n_values", ["500"]), ("master_seed", "1"), ("threads", "2"),
    ])
    def test_config_file_numbers_are_json_numbers(self, key, value, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"{key} must hold JSON numbers"):
            parse_config(["--config", str(path)])
        assert main(["--config", str(path)]) == 1


class TestSurface:
    def test_one_spelling_per_input_and_three_modes(self):
        parser = _build_parser()
        options = {s for action in parser._actions for s in action.option_strings}
        assert options == {
            "-h", "--help", "--config", "--mu-values", "--p-values", "--n-values", "--sigma",
            "--mu-overall", "--replicates", "--seed", "--threads", "--out", "--version",
        }
        (mode,) = [action for action in parser._actions if action.dest == "mode"]
        assert set(mode.choices) == {"sweep", "appendix", "table4"}

    def test_one_configuration_object_and_no_settable_level(self):
        # Every knob here is one a caller sets; adding one must edit this test.
        assert [f.name for f in dataclasses.fields(experiment.ParameterSet)] == [
            "mu1", "mu2", "p1", "p2", "n_world", "sigma", "mu_overall", "replicates",
            "config_index",
        ]
        signatures = {
            experiment.generate_grid: ["mu_values", "p_values", "n_values", "sigma",
                                       "mu_overall", "replicates"],
            experiment.run_sweep: ["param_sets", "master_seed", "processes"],
            experiment.run_config: ["ps", "master_seed"],
            experiment.derive_seed: ["master_seed", "config_index"],
            intervals.empirical_limits: ["stats"],
            intervals.formula_limits: ["centres", "log_sd", "n"],
            experiment.summarize: ["records"],
            emit_reports: ["summaries", "config"],
        }
        for function, names in signatures.items():
            assert list(inspect.signature(function).parameters) == names, function.__name__

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), re.M | re.S)
        commands = [line.split("#")[0] for block in blocks for line in block.splitlines()
                    if line.startswith("citesim ")]
        assert commands
        for command in commands:
            parse_config(shlex.split(command)[1:])

    def test_modes_load_no_scipy(self, tmp_path):
        # The library's special functions come from numpy and the stdlib.
        src = Path(citesim.__file__).resolve().parents[1]
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {str(src)!r})",
            "from citesim.cli import main",
            f"out = {str(tmp_path)!r}",
            "assert main(['sweep', '--mu-values', '0.9', '1.1', '--p-values', '0.2', "
            "'--n-values', '100', '--replicates', '40', '--threads', '1', "
            "'--out', out + '/sweep']) == 0",
            "assert main(['appendix', '--replicates', '40', '--out', out + '/appendix']) == 0",
            "assert main(['table4', '--out', out + '/table4']) == 0",
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True)
        assert result.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        # The package re-exports nothing: names are imported from their modules.
        src = Path(citesim.__file__).resolve().parents[1]
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {str(src)!r})",
            "import citesim",
            "print(sorted(name for name in sys.modules if name.startswith('citesim.')))",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True)
        assert result.stdout.strip() == "[]"


def synthetic_summaries():
    """One configuration per standard world size, scoring below 1 on geo only."""
    sims = {name: 1.5 for name in INDICATOR_NAMES}
    sims["geo"] = 0.5
    return [fake_summary(n, sims) for n in ALL_N]


class TestEmitReports:
    def test_table_shapes_for_standard_grid(self, tmp_path):
        written = emit_reports(synthetic_summaries(), RunConfig(output_dir=tmp_path))
        table1 = read_csv(written["table1"])
        assert table1[0] == ["N", "indicator", "count", "percent"]
        assert len(table1) - 1 == 25  # 5 sizes x 5 indicators
        assert [row[:3] for row in table1[1:3]] == [["500", "arith", "0"], ["500", "geo", "1"]]
        table2 = read_csv(written["table2"])
        assert len(table2) - 1 == 40  # (geo + 3 top shares) x 2 limits x 5 sizes
        assert {row[0] for row in table2[1:]} == set(FORMULA_INDICATOR_NAMES)
        assert len(read_csv(written["figure1"])) - 1 == 25  # 5 configurations x 5 indicators
        assert len(written["records"].read_text().splitlines()) == 5

    def test_manifest_contents(self, tmp_path):
        written = emit_reports(synthetic_summaries(),
                               RunConfig(master_seed=17, output_dir=tmp_path))
        manifest = json.loads(written["manifest"].read_text())
        assert manifest["master_seed"] == 17
        assert manifest["n_values"] == list(ALL_N)
        assert manifest["configurations"] == 5
        assert manifest["total_draws"] == 1000 * sum(ALL_N)
        assert "version" in manifest
        assert manifest["stream_version"] == 2
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()


class TestModes:
    def test_table4_mode(self, tmp_path):
        assert main(["table4", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "table4.csv")
        assert rows[0][0] == "value"
        total = rows[-1]
        assert total[0] == "total"
        assert (total[4], total[5]) == ("1099200", "901800")
        ranks = [row[3] for row in rows[1:-1]]
        assert ranks == ["675", "1529", "1755.5", "1895", "1988.5", "1995"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["mode"] == "table4"
        assert not {"mu_values", "p_values", "n_values"} & set(manifest)
        replay = tmp_path / "replay"
        assert main(["--config", str(tmp_path / "manifest.json"), "--out", str(replay)]) == 0
        assert (replay / "table4.csv").read_bytes() == (tmp_path / "table4.csv").read_bytes()

    def test_appendix_mode(self, tmp_path):
        code = main(["appendix", "--replicates", "200", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "appendix.json").read_text())
        assert payload["zero_prop2"] > payload["zero_prop1"]
        assert payload["mw_p"] < 0.01
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert not {"mu_values", "p_values", "n_values"} & set(manifest)
        demo = {"sample1_size": 75, "sample2_size": 25, "world_size": 500, "mu": 0.9,
                "sigma": 1.0, "mu_overall": 1.0, "replicates": 200, "master_seed": 3}
        assert {key: manifest[key] for key in demo} == demo
        replay = tmp_path / "replay"
        assert main(["--config", str(tmp_path / "manifest.json"), "--out", str(replay)]) == 0
        assert (replay / "appendix.json").read_bytes() == (tmp_path / "appendix.json").read_bytes()

    def test_sweep_mode_writes_all_artifacts(self, tmp_path):
        code = main([
            "sweep", "--mu-values", "0.9", "1.1", "--p-values", "0.2",
            "--n-values", "100", "--replicates", "50", "--seed", "4",
            "--threads", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        for name in ("table1.csv", "table2.csv", "figure1.csv", "records.jsonl", "manifest.json"):
            assert (tmp_path / name).exists()
        records = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
        assert len(records) == 1
        assert set(records[0]["similarity"]) == set(INDICATOR_NAMES)
        figure = read_csv(tmp_path / "figure1.csv")
        assert len(figure) - 1 == 5

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_records_and_figure_rows_are_the_summaries_encoded(self, threads, tmp_path):
        # Workers encode the artifact lines; they must be exactly what the
        # one encoder of each file makes of run_config's summary here.
        args = ["sweep", "--mu-values", "0.9", "1.0", "1.1", "--p-values", "0.1", "0.2",
                "--n-values", "100", "200", "--replicates", "40", "--seed", "4",
                "--threads", threads, "--out", str(tmp_path)]
        assert main(args) == 0
        summaries = [run_config(ps, master_seed=4) for ps in generate_grid(
            mu_values=(0.9, 1.0, 1.1), p_values=(0.1, 0.2), n_values=(100, 200), replicates=40)]
        assert (tmp_path / "records.jsonl").read_text().splitlines() == [
            json.dumps(s.to_dict(), separators=(",", ":")) for s in summaries]
        figure = io.StringIO()
        writer = csv.writer(figure)
        writer.writerow(["mu1", "mu2", "p1", "p2", "N", "indicator", "similarity"])
        for s in summaries:
            ps = s.params
            writer.writerows([_fmt(ps.mu1), _fmt(ps.mu2), _fmt(ps.p1), _fmt(ps.p2), ps.n_world,
                              name, _fmt(value)]
                             for name, value in zip(INDICATOR_NAMES, s.similarity.tolist()))
        assert (tmp_path / "figure1.csv").read_bytes() == figure.getvalue().encode()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["sweep", "--mu-values", "0.9", "1.0", "--p-values", "0.1", "0.2",
                "--n-values", "120", "--replicates", "40", "--seed", "12"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--threads", "1", "--out", str(first)]) == 0
        assert main(args + ["--threads", "2", "--out", str(second)]) == 0
        for name in ("table1.csv", "table2.csv", "figure1.csv", "records.jsonl", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_golden_sweep_hashes(self, tmp_path):
        assert main(GOLDEN_ARGS + ["--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
        assert got == GOLDEN_SHA256, f"Python {platform.python_version()}, numpy {np.__version__}"

    def test_golden_sigma2_hashes(self, tmp_path):
        assert main(GOLDEN_SIGMA2_ARGS + ["--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SIGMA2_SHA256}
        assert got == GOLDEN_SIGMA2_SHA256, (
            f"Python {platform.python_version()}, numpy {np.__version__}")

    def test_golden_appendix_hash(self, tmp_path):
        assert main(GOLDEN_APPENDIX_ARGS + ["--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "appendix.json").read_bytes()).hexdigest()
        assert got == GOLDEN_APPENDIX_SHA256, (
            f"Python {platform.python_version()}, numpy {np.__version__}")

    def test_golden_table4_hash(self, tmp_path):
        assert main(["table4", "--out", str(tmp_path)]) == 0
        got = hashlib.sha256((tmp_path / "table4.csv").read_bytes()).hexdigest()
        assert got == GOLDEN_TABLE4_SHA256, (
            f"Python {platform.python_version()}, numpy {np.__version__}")

    def test_manifest_reproduces_run(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        code = main([
            "sweep", "--mu-values", "0.9", "1.0", "--p-values", "0.2",
            "--n-values", "120", "--replicates", "40", "--seed", "6",
            "--out", str(first),
        ])
        assert code == 0
        replay = main(["--config", str(first / "manifest.json"), "--out", str(second)])
        assert replay == 0
        for name in ("table1.csv", "table2.csv", "figure1.csv", "records.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert json.loads((first / "manifest.json").read_text())["stream_version"] == 2

    @pytest.mark.parametrize("edit", [{"stream_version": 1}, {"stream_version": None}],
                             ids=["older-streams", "before-stream-versions"])
    def test_manifest_of_other_streams_is_refused(self, edit, tmp_path, capsys):
        assert main(["sweep", "--mu-values", "0.9", "1.0", "--p-values", "0.2",
                     "--n-values", "120", "--replicates", "40", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest.update(edit)
        if manifest["stream_version"] is None:
            del manifest["stream_version"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(manifest))
        assert main(["--config", str(path), "--out", str(tmp_path / "replay")]) == 1
        assert "stream_version 1" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("edit", [{}, {"numpy_version": "1.24.0", "python_version": "3.9.0"}],
                             ids=["same-versions", "other-versions"])
    def test_manifest_of_other_versions_warns(self, edit, tmp_path, caplog):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["appendix", "--replicates", "40", "--seed", "2", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest.update(edit)
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(manifest))
        with caplog.at_level(logging.WARNING, logger="citesim.cli"):
            assert main(["--config", str(path), "--out", str(second)]) == 0
        warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
        assert len(warnings) == len(edit)
        for message, (key, running) in zip(warnings, [("numpy_version", np.__version__),
                                                      ("python_version",
                                                       platform.python_version())]):
            assert key in message and edit[key] in message and running in message
        assert (second / "appendix.json").read_bytes() == (first / "appendix.json").read_bytes()

    def test_tables_recomputable_from_records(self, tmp_path):
        assert main([
            "sweep", "--mu-values", "0.9", "1.0", "1.1", "--p-values", "0.1", "0.2",
            "--n-values", "150", "--replicates", "50", "--seed", "8",
            "--out", str(tmp_path),
        ]) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "records.jsonl").read_text().splitlines()
        ]
        table1 = {
            (row[0], row[1]): int(row[2])
            for row in read_csv(tmp_path / "table1.csv")[1:]
        }
        for name in INDICATOR_NAMES:
            hits = sum(
                1 for rec in records
                if rec["similarity"][name] is not None and rec["similarity"][name] < 1.0
            )
            assert table1[("150", name)] == hits
        table2 = read_csv(tmp_path / "table2.csv")
        for row in table2[1:]:
            name, side = row[0], row[1]
            per_config = []
            for rec in records:
                values = [
                    rec[country][name]["discrepancy"][0 if side == "lower" else 1]
                    for country in ("country1", "country2")
                ]
                values = [v for v in values if v is not None]
                if values:
                    per_config.append(sum(values) / len(values))
            assert float(row[5]) == pytest.approx(
                sum(per_config) / len(per_config), abs=5e-6
            )


def _near_or_wide(near, wide):
    """Mostly values near the accepted domain, and now and then any finite one."""
    return st.integers(0, 7).flatmap(lambda k: wide if k == 7 else near)


def _grid_values(near, wide, max_size):
    return _near_or_wide(st.lists(near, min_size=2, max_size=max_size, unique=True),
                         st.lists(wide, min_size=1, max_size=max_size, unique=True)).map(sorted)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WIDE_INT = st.integers(-2**80, 2**80)


def _arg(value):
    # Positional notation: argparse takes "-1e+300" for an option, but "-1000..." for a number.
    return np.format_float_positional(value, trim="-") if isinstance(value, float) else str(value)


@st.composite
def _sweep_argv(draw):
    flags = {
        "--mu-values": draw(_grid_values(st.floats(-60, 60), _FINITE, 4)),
        "--p-values": draw(_grid_values(st.floats(0.01, 0.45), _FINITE, 3)),
        "--n-values": draw(_grid_values(st.integers(200, 10**5), _WIDE_INT, 3)),
        "--sigma": [draw(_near_or_wide(st.floats(1e-3, 10), _FINITE))],
        "--mu-overall": [draw(_near_or_wide(st.floats(-60, 60), _FINITE))],
        "--replicates": [draw(_near_or_wide(st.integers(40, 5000), _WIDE_INT))],
    }
    return ["sweep", *(item for flag, values in flags.items()
                       for item in (flag, *map(_arg, values)))]


class TestValidationClosure:
    @given(_sweep_argv())
    @settings(max_examples=1000, deadline=None)
    def test_accepted_grids_give_valid_count_tables(self, argv):
        # parse_config alone, sampling nothing: in a grid it accepts, every
        # feasible configuration has a finite rest-of-world location and
        # count tables of finite, non-negative probabilities that sum to 1.
        try:
            config = parse_config(argv + ["--out", "unused"])
        except ConfigError:
            return
        pairs = itertools.combinations(config.mu_values, 2)
        for (mu1, mu2), p1, p2 in itertools.product(pairs, config.p_values, config.p_values):
            try:
                rest = rest_of_world_location(config.mu_overall, mu1, mu2, p1, p2)
            except ValueError:
                continue  # generate_grid skips an infeasible configuration
            locations = (mu1, mu2, rest)
            top = table_top(max(locations), config.sigma)
            tables = count_table(locations, config.sigma, top)
            assert math.isfinite(rest) and top >= 1, argv
            assert np.isfinite(tables).all() and (tables >= 0).all(), argv
            np.testing.assert_allclose(tables.sum(axis=-1), 1.0, err_msg=str(argv))


class TestExitCodes:
    def test_config_error_is_one(self, capsys):
        assert main(["--replicates", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--n-values", "0"],
        ["--p-values", "0.6", "0.7"],
        ["--p-values", "-0.1", "0.1"],
        ["--n-values", "10", "--p-values", "0.05", "0.1"],
        ["--mu-values", "1.0", "--n-values", "500"],
        ["--mu-values", "0.9", "2.5", "--p-values", "0.25"],
        ["--sigma", "inf"],
        ["--mu-overall", "1000"],
        ["--mu-values", "800", "801"],
        ["appendix", "--mu-overall", "-1"],
        ["sweep", "--sigma", "1e300", "--p-values", "0.1", "--n-values", "100",
         "--replicates", "40"],
        ["--sigma", "20", "--mu-values", "0.9", "1.0", "--p-values", "0.1", "--n-values", "1000",
         "--replicates", "40"],
        ["appendix", "--sigma", "20", "--replicates", "40"],
        ["--mu-overall", "700", "--p-values", "0.1", "--n-values", "100", "--replicates", "40"],
        ["--mu-overall", "-30", "--mu-values", "-40", "-39", "--p-values", "0.1",
         "--n-values", "100", "--replicates", "40"],
        ["--mu-overall", "-700", "--mu-values", "-800", "-799", "--p-values", "0.1",
         "--n-values", "100", "--replicates", "40"],
        ["--mu-overall", "0", "--mu-values", "0", "0.5", "--p-values", "0.25", "0.375",
         "--n-values", "200", "--sigma", "0.0625", "--replicates", "40"],
        ["--mu-overall", "0", "--mu-values", "0", "0.5", "--p-values", "0.25", "0.375", "0.4",
         "--n-values", "200", "--sigma", "0.0625", "--replicates", "40"],
        ["--n-values", str(10**400)],
        ["--n-values", "1000000000000"],
        ["--n-values", str(2**63)],
        ["--replicates", "1000000000000"],
    ], ids=["zero-world", "shares-over-one", "negative-share", "one-article-country",
            "single-location", "no-feasible-configuration", "infinite-sigma",
            "overall-location-overflows", "country-location-overflows",
            "infeasible-appendix", "huge-sigma", "counts-beyond-2-53",
            "appendix-counts-beyond-2-53", "overall-location-beyond-2-53",
            "count-table-without-mass", "table-top-without-mass",
            "corner-rest-location-without-mass", "inner-rest-location-without-mass",
            "world-size-beyond-float", "world-size-beyond-memory", "world-size-2-63",
            "replicates-beyond-memory"])
    def test_invalid_grid_is_config_error(self, argv, tmp_path, capsys):
        # exit 1 comes only from parse_config, before anything is sampled
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_world_within_the_memory_bound_is_accepted(self, tmp_path):
        # A block expects 64 x 0.9e10 x 1e-4 values above the count table, under 2**27.
        config = parse_config(["--n-values", "10000000000", "--replicates", "40",
                               "--out", str(tmp_path / "out")])
        assert {ps.n_world for ps in config.grid} == {10**10}

    @pytest.mark.parametrize("argv, artifact", [
        (["appendix", "--n-values", "0", "--replicates", "40"], "appendix.json"),
        (["appendix", "--mu-values", "0.9", "2.5", "--p-values", "0.25", "--replicates", "40"],
         "appendix.json"),
        (["table4", "--n-values", "0"], "table4.csv"),
    ], ids=["appendix-zero-world", "appendix-no-feasible-configuration", "table4-zero-world"])
    def test_grid_flags_are_read_in_sweep_mode_only(self, argv, artifact, tmp_path):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / artifact).exists()

    @pytest.mark.parametrize("argv, configurations", [
        # 3 of the 9 share pairs are feasible.  Their 60,000 draws at location
        # 2.88 expect 6.1e-7 counts at or above 2**53, inside the 1e-6 limit;
        # all 9 pairs' 180,000 draws would expect 1.8e-6.
        (["--mu-values", "1.73", "2.88", "--p-values", "0.06", "0.28", "0.31",
          "--n-values", "500", "--sigma", "5.02", "--mu-overall", "1.45"], 3),
        # The z-scores overflow to +-inf: point-mass count tables, and no warning.
        (["--mu-values", "0.9", "1.0", "--p-values", "0.1", "--n-values", "200",
          "--sigma", "1e-308"], 1),
    ], ids=["exact-location-bound", "tiny-sigma"])
    def test_accepted_grid_runs(self, argv, configurations, tmp_path):
        assert main(["sweep", *argv, "--replicates", "40", "--threads", "1",
                     "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "records.jsonl").read_text().splitlines()) == configurations

    def test_sweep_builds_its_grid_once(self, tmp_path, monkeypatch, caplog):
        # (1.0, 2.11) is the one infeasible pair at share 0.25.
        calls, solves = [], []
        monkeypatch.setattr(cli, "generate_grid",
                            lambda **grid: calls.append(grid) or experiment.generate_grid(**grid))
        monkeypatch.setattr(experiment, "rest_of_world_location",
                            lambda *args: solves.append(args) or rest_of_world_location(*args))
        with caplog.at_level(logging.WARNING):
            code = main(["--mu-values", "0.9", "1.0", "2.11", "--p-values", "0.25",
                         "--n-values", "100", "--replicates", "40", "--threads", "1",
                         "--out", str(tmp_path)])
        assert code == 0 and len(calls) == 1
        # One solve per (pair, shares) to build the grid, and none again in the run.
        assert len(solves) == 3
        skipped = [rec.getMessage() for rec in caplog.records
                   if rec.getMessage().startswith("skipping infeasible configuration")]
        assert skipped == [skipped[0]] and "mu1=1 mu2=2.11" in skipped[0]
        assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 2

    def test_appendix_builds_its_configuration_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "appendix_config",
                            lambda *args: calls.append(args) or appendix_config(*args))
        assert main(["appendix", "--replicates", "40", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_grid_without_feasible_configuration_names_the_solver(self, tmp_path, capsys,
                                                                  caplog):
        # The first configuration is the least demanding solve, so its
        # failure ends validation before any configuration is skipped.
        with caplog.at_level(logging.WARNING):
            code = main(["--mu-values", "2.5", "2.6", "2.7", "--p-values", "0.25", "0.3",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "no feasible configurations: country means too large" in err
        assert not [rec for rec in caplog.records if "skipping" in rec.getMessage()]
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_is_one(self):
        assert main(["tableX"]) == 1

    def test_failing_configuration_is_named(self, tmp_path, monkeypatch, caplog):
        real = experiment.replicate_statistics

        def failing(ps, master_seed):
            if ps.config_index == 1:
                raise FloatingPointError("injected")
            return real(ps, master_seed)

        monkeypatch.setattr(experiment, "replicate_statistics", failing)
        with caplog.at_level(logging.DEBUG, logger="citesim.cli"):
            code = main(["--mu-values", "0.9", "1.0", "--p-values", "0.1", "0.2",
                         "--n-values", "100", "--replicates", "40", "--threads", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        failed = [rec for rec in caplog.records if rec.getMessage().startswith("run failed")]
        assert failed[0].getMessage() == (
            "run failed: config 1 (mu1=0.9 mu2=1 p1=0.1 p2=0.2 N=100): injected")
        assert any(rec.levelno == logging.DEBUG and rec.exc_info for rec in caplog.records)

    def test_count_beyond_float_precision_is_one(self, tmp_path, capsys):
        # At --sigma 20 this run expects thousands of tail draws at or above
        # 2**53, so validation refuses it before sampling.
        code = main(["--sigma", "20", "--mu-values", "0.9", "1.0", "--p-values", "0.1",
                     "--n-values", "1000", "--replicates", "40", "--threads", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "sigma=20" in err and "2**53" in err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure_is_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["table4", "--out", str(blocker / "nested")])
        assert code == 2
