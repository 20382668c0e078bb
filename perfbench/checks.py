"""Output checks for one `citesim sweep` run.

A configuration counts as failed when its record is missing, duplicated,
out of `config_index` order, breaks a value check, or differs byte for
byte from the same configuration's record in an earlier run at the same
seed.  A run that exits non-zero, lacks an artifact, or whose manifest
disagrees with the expected configuration count fails every
configuration.  None of the checks depends on the random streams, so a
deliberate stream change is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACTS = ("table1.csv", "table2.csv", "figure1.csv", "records.jsonl", "manifest.json")
HASHED = ("records.jsonl", "table1.csv", "table2.csv")
INDICATORS = ("arith", "geo", "top1", "top10", "top50")
TOP_SHARES = (("top1", 1.0), ("top10", 10.0), ("top50", 50.0))


@dataclass
class RunCheck:
    """Outcome of checking one run against `expected` configurations."""

    expected: int
    failed: int
    lines: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def record_problem(rec: dict) -> str | None:
    """Why one configuration record is invalid, or None when it passes.

    Every non-diagnostic similarity is finite and positive, except that it
    is null (undefined) exactly when the two countries' means coincide,
    which small replicate counts make possible for the top-X shares.
    Every top-X mean lies in [0, 1], and the two countries together never
    hold more than the X% of the world's credit that the tie rule hands
    out: n1*share1 + n2*share2 <= X/100 * N.
    """
    try:
        if not rec["diagnostic"]:
            for name in INDICATORS:
                value = rec["similarity"][name]
                tied = rec["country1"][name]["mean"] == rec["country2"][name]["mean"]
                if value is None and tied:
                    continue
                if value is None or tied or not math.isfinite(value) or not value > 0:
                    return f"similarity {name} = {value}"
        n_world = rec["n_world"]
        n1 = math.floor(rec["p1"] * n_world + 0.5)
        n2 = math.floor(rec["p2"] * n_world + 0.5)
        for name, share in TOP_SHARES:
            s1 = rec["country1"][name]["mean"]
            s2 = rec["country2"][name]["mean"]
            if not (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0):
                return f"{name} mean outside [0, 1]: {s1}, {s2}"
            budget = share / 100.0 * n_world
            if n1 * s1 + n2 * s2 > budget * (1.0 + 1e-12):
                return f"{name} credit {n1 * s1 + n2 * s2} exceeds {budget}"
    except (KeyError, TypeError) as exc:
        return f"malformed record: {exc!r}"
    return None


def check_run(outdir: Path, exit_code: int, expected: int, reference=None) -> RunCheck:
    """Check one run's artifacts; `reference` holds an earlier run's lines."""
    outdir = Path(outdir)
    if exit_code != 0:
        return RunCheck(expected, expected, problems=[f"exit code {exit_code}"])
    missing = [name for name in ARTIFACTS if not (outdir / name).is_file()]
    if missing:
        return RunCheck(expected, expected, problems=[f"missing {', '.join(missing)}"])
    hashes = {name: sha256_file(outdir / name) for name in HASHED}
    try:
        manifest_count = json.loads((outdir / "manifest.json").read_text())["configurations"]
    except (ValueError, KeyError, TypeError) as exc:
        return RunCheck(expected, expected, hashes=hashes,
                        problems=[f"unreadable manifest: {exc!r}"])
    if manifest_count != expected:
        return RunCheck(expected, expected, hashes=hashes, problems=[
            f"manifest lists {manifest_count} configurations, expected {expected}"])

    lines = (outdir / "records.jsonl").read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    else:
        lines[-1] += b"<no newline>"  # a truncated last line never parses
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))
        except ValueError:
            parsed.append(None)
    occurrences: dict = {}
    for rec in parsed:
        if isinstance(rec, dict):
            index = rec.get("config_index")
            occurrences[index] = occurrences.get(index, 0) + 1

    problems = []
    passed = 0
    for position, (line, rec) in enumerate(zip(lines, parsed)):
        if position >= expected:
            problems.append(f"line {position + 1}: beyond {expected} configurations")
            continue
        if not isinstance(rec, dict):
            problems.append(f"line {position + 1}: not a JSON object")
            continue
        index = rec.get("config_index")
        if index != position:
            problems.append(f"line {position + 1}: config_index {index} out of order")
            continue
        if occurrences[index] != 1:
            problems.append(f"config {index}: {occurrences[index]} records")
            continue
        reason = record_problem(rec)
        if reason is not None:
            problems.append(f"config {index}: {reason}")
            continue
        if reference is not None and (position >= len(reference) or reference[position] != line):
            problems.append(f"config {index}: record differs from an earlier run")
            continue
        passed += 1
    if len(lines) < expected:
        problems.append(f"{expected - len(lines)} configurations have no record")
    extra = max(len(lines) - expected, 0)
    failed = min(expected - passed + extra, expected)
    return RunCheck(expected, failed, lines, hashes, problems)
