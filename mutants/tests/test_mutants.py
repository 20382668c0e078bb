"""Tests of the mutation gate's runner (no mutant of the library is run).

    python3 -m pytest mutants/tests
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
# Loaded under its own name: perfbench/tests imports another module called run.
_spec = importlib.util.spec_from_file_location("mutants_run", HERE / "run.py")
gate = sys.modules["mutants_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def mutant(old="return a + b", new="return a - b", tests=("tests/test_mod.py",)):
    return gate.Mutant(f"{old} -> {new}", "src/pkg/mod.py", old, new, tests)


@pytest.fixture
def project(tmp_path):
    """A tiny project laid out like the repository: one module, one test."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("def add(a, b):\n    return a + b\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n")
    (tmp_path / "README.md").write_text("tiny\n")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\ntestpaths = ["tests"]\npythonpath = ["src"]\n')
    return tmp_path


class TestEntries:
    @pytest.mark.parametrize("entry", gate.MUTANTS, ids=lambda m: m.name)
    def test_old_text_occurs_once_and_named_tests_exist(self, entry):
        text = (gate.ROOT / entry.path).read_text()
        assert gate.mutated(entry, text) != text
        assert entry.tests
        for test in entry.tests:
            path, *names = test.split("::")
            source = (gate.ROOT / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), test

    def test_names_are_unique(self):
        names = [m.name for m in gate.MUTANTS]
        assert len(names) == len(set(names))


class TestMutated:
    @pytest.mark.parametrize("text", ["x = 1\n", "a + b\na + b\n"], ids=["absent", "twice"])
    def test_old_text_must_occur_once(self, text):
        with pytest.raises(ValueError, match="not once"):
            gate.mutated(mutant(old="a + b"), text)

    def test_replaces_the_old_text(self):
        assert gate.mutated(mutant(), "    return a + b\n") == "    return a - b\n"


def test_copy_tree_skips_caches(project):
    (project / "src" / "pkg" / "__pycache__").mkdir()
    (project / "extra.txt").write_text("not copied")
    dest = project / "copy"
    dest.mkdir()
    gate.copy_tree(project, dest)
    assert (dest / "src" / "pkg" / "mod.py").exists()
    assert (dest / "pyproject.toml").exists() and (dest / "README.md").exists()
    assert not (dest / "src" / "pkg" / "__pycache__").exists()
    assert not (dest / "extra.txt").exists()


class FakePytest:
    """Returns the given exit statuses in turn and records each run."""

    def __init__(self, *statuses):
        self.statuses = list(statuses)
        self.runs = []

    def __call__(self, root, tests=()):
        self.runs.append((tuple(tests), (root / "src" / "pkg" / "mod.py").read_text()))
        return self.statuses.pop(0)


class TestVerdict:
    @pytest.mark.parametrize("statuses,want", [
        ((1,), "killed"),
        ((0, 1), "killed by tier-1"),
        ((0, 0), "survived"),
    ])
    def test_named_tests_then_tier_1(self, project, statuses, want):
        run = FakePytest(*statuses)
        assert gate.verdict(mutant(), project, run) == want
        assert len(run.runs) == len(statuses)
        # Both runs see the mutated copy; the project itself is untouched.
        assert all("a - b" in text for _, text in run.runs)
        assert run.runs[0][0] == ("tests/test_mod.py",)
        assert run.runs[1:] in ([], [((), run.runs[0][1])])
        assert "a + b" in (project / "src" / "pkg" / "mod.py").read_text()


class TestMain:
    def test_all_killed_is_0(self, project, capsys):
        run = FakePytest(0, 1, 0, 1)
        assert gate.main([mutant(), mutant(new="return a * b")], project, run) == 0
        assert "2 of 2 mutants killed" in capsys.readouterr().out
        assert "a + b" in run.runs[0][1]  # the baseline runs unmutated

    def test_a_survivor_is_1(self, project, capsys):
        assert gate.main([mutant()], project, FakePytest(0, 0, 0)) == 1
        assert "survived" in capsys.readouterr().out

    def test_a_stale_entry_is_1_before_anything_runs(self, project, capsys):
        run = FakePytest()
        assert gate.main([mutant(), mutant(old="return b + a")], project, run) == 1
        assert run.runs == []
        assert "occurs 0 times" in capsys.readouterr().out

    def test_named_tests_failing_unmutated_is_1(self, project, capsys):
        run = FakePytest(1)
        assert gate.main([mutant()], project, run) == 1
        assert len(run.runs) == 1
        assert "do not all pass" in capsys.readouterr().out


def test_real_pytest_on_a_tiny_project(project, capsys):
    # a - b fails test_add; b + a is an equivalent mutant, which nothing can kill.
    assert gate.main([mutant()], project) == 0
    assert gate.main([mutant(), mutant(new="return b + a")], project) == 1
    out = capsys.readouterr().out
    assert re.search(r"^killed .*a - b$", out, re.M)
    assert re.search(r"^survived .*b \+ a$", out, re.M)
