"""Tests of the benchmark's own machinery (no sweep is run).

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_of_nested_calls():
    tracer = spans.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_fn():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_fn)
    outer = tracer.wrap("outer", lambda: (middle(), leaf()))
    outer()
    table = spans.SpanTable(tracer.to_dict())
    # Clock readings: outer 1-10, middle 2-7, leaves 3-4, 5-6 and 8-9.
    names = [table.names[i] for i in table.name]
    assert names == ["outer", "middle", "leaf", "leaf", "leaf"]
    assert list(table.parent) == [-1, 0, 1, 1, 0]
    assert list(table.duration) == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert list(table.self_time) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert table.self_time.sum() == table.duration[table.top_level()].sum()
    assert table.count("leaf") == 3 and table.self_total("middle") == 3.0
    assert list(table.children_of(table.mask("middle"))) == [False, False, True, True, False]


def test_self_time_survives_exceptions_and_subsets():
    tracer = spans.Tracer(clock=FakeClock())

    def boom():
        raise RuntimeError("x")

    fail = tracer.wrap("fail", boom)
    with pytest.raises(RuntimeError):
        fail()
    tracer.wrap("ok", lambda: None)()
    table = spans.SpanTable(tracer.to_dict())
    assert list(table.duration) == [1.0, 1.0]
    tail = table.subset(1, 2)
    assert list(tail.parent) == [-1] and tail.count("ok") == 1


def test_instrument_wraps_every_binding(monkeypatch):
    package = types.ModuleType("fakepkg")
    modules = {}
    for short in spans.TRACED_MODULES:
        module = types.ModuleType(f"fakepkg.{short}")
        module.__all__ = []
        modules[short] = module
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, "fakepkg", package)

    def helper(x):
        return x + 1

    helper.__module__ = "fakepkg.indicators"
    modules["indicators"].helper = helper
    modules["indicators"].__all__ = ["helper"]
    modules["experiment"].helper = helper  # from .indicators import helper
    package.helper = helper
    monkeypatch.setattr(spans.np.random, "default_rng", spans.np.random.default_rng)

    tracer = spans.Tracer()
    spans.instrument(tracer, only={"indicators.helper"}, package="fakepkg")
    assert tracer.names == ["indicators.helper"]
    assert modules["experiment"].helper(1) == 2
    assert package.helper(2) == 3
    assert modules["indicators"].helper(3) == 4
    assert len(tracer) == 3


def _record(index, **overrides):
    side = {name: {"mean": 0.5} for name in checks.INDICATORS}
    rec = {
        "config_index": index, "mu1": 0.9, "mu2": 1.0, "p1": 0.1, "p2": 0.1,
        "n_world": 100, "diagnostic": False,
        "similarity": {name: 2.0 for name in checks.INDICATORS},
        "country1": {k: dict(v) for k, v in side.items()},
        "country2": {k: {"mean": 0.4} for k in side},
    }
    rec["country1"]["top1"]["mean"] = rec["country2"]["top1"]["mean"] = 0.0
    rec["similarity"]["top1"] = None
    rec.update(overrides)
    return rec


def _write_run(outdir: Path, records, configurations=None, raw=None):
    outdir.mkdir(parents=True, exist_ok=True)
    for name in checks.ARTIFACTS:
        (outdir / name).write_text("x\n")
    count = len(records) if configurations is None else configurations
    (outdir / "manifest.json").write_text(json.dumps({"configurations": count}))
    if raw is None:
        raw = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    (outdir / "records.jsonl").write_text(raw)
    return outdir


def test_checker_accepts_a_valid_run(tmp_path):
    outdir = _write_run(tmp_path / "ok", [_record(i) for i in range(4)])
    result = checks.check_run(outdir, 0, 4)
    assert result.failed == 0, result.problems
    again = checks.check_run(outdir, 0, 4, reference=result.lines)
    assert again.failed == 0 and set(again.hashes) == set(checks.HASHED)


def test_checker_rejects_non_zero_exit_and_missing_artifacts(tmp_path):
    outdir = _write_run(tmp_path / "run", [_record(i) for i in range(4)])
    assert checks.check_run(outdir, 2, 4).failed == 4
    (outdir / "table2.csv").unlink()
    assert checks.check_run(outdir, 0, 4).failed == 4


def test_checker_rejects_manifest_mismatch(tmp_path):
    outdir = _write_run(tmp_path / "run", [_record(i) for i in range(4)], configurations=5)
    assert checks.check_run(outdir, 0, 4).failed == 4


def test_checker_rejects_truncated_records(tmp_path):
    records = [_record(i) for i in range(4)]
    full = "".join(json.dumps(r) + "\n" for r in records)
    short = _write_run(tmp_path / "a", records[:3], configurations=4)
    assert checks.check_run(short, 0, 4).failed == 1
    cut = _write_run(tmp_path / "b", records, raw=full[: len(full) - 20])
    assert checks.check_run(cut, 0, 4).failed == 1
    no_newline = _write_run(tmp_path / "c", records, raw=full[:-1])
    assert checks.check_run(no_newline, 0, 4).failed == 1


def test_checker_rejects_reordered_records(tmp_path):
    records = [_record(i) for i in (0, 2, 1, 3)]
    assert checks.check_run(_write_run(tmp_path / "run", records), 0, 4).failed == 2


def test_checker_rejects_duplicated_records(tmp_path):
    records = [_record(i) for i in (0, 1, 1, 2, 3)]
    result = checks.check_run(_write_run(tmp_path / "run", records, configurations=4), 0, 4)
    assert result.failed == 4  # 1 twice, 2 and 3 displaced, one extra line


def test_checker_rejects_records_that_differ_from_reference(tmp_path):
    first = checks.check_run(_write_run(tmp_path / "a", [_record(i) for i in range(3)]), 0, 3)
    changed = [_record(0), _record(1, mu1=0.91), _record(2)]
    second = checks.check_run(_write_run(tmp_path / "b", changed), 0, 3, first.lines)
    assert second.failed == 1


@pytest.mark.parametrize("mutate", [
    lambda r: r["similarity"].update(geo=None),
    lambda r: r["similarity"].update(geo=float("inf")),
    lambda r: r["similarity"].update(arith=-1.0),
    lambda r: r["similarity"].update(top1=0.5),  # means tie, so it must be null
    lambda r: r["country1"]["top10"].update(mean=1.5),
    lambda r: r.pop("similarity"),
])
def test_record_value_checks(mutate):
    rec = _record(0)
    assert checks.record_problem(rec) is None
    mutate(rec)
    assert checks.record_problem(rec) is not None


def test_record_credit_conservation():
    rec = _record(0, p1=0.5, p2=0.4)  # n1 = 50, n2 = 40 of N = 100
    rec["country1"]["top10"]["mean"] = 0.1
    rec["country2"]["top10"]["mean"] = 0.125  # 5 + 5 = 10 slots: allowed
    assert checks.record_problem(rec) is None
    rec["country2"]["top10"]["mean"] = 0.15  # 5 + 6 > 10
    assert "credit" in checks.record_problem(rec)


def test_tail_sample_keeps_ten_samples_beyond():
    pct, value = run.tail_sample(range(1, 101))
    assert (pct, value) == (90.0, 90)
    pct, value = run.tail_sample(range(27))
    assert value == 16 and pct == pytest.approx(100 * 17 / 27)


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["unit"] == dict(run.END_TO_END + run.PER_LAYER)[metric["name"]]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in list(run.WORKLOADS):
        assert NAME.fullmatch(name)
