"""Smoke run of ``benchmarks/ab.py``: one pair of one short ``burst`` run,
base == head, both checked out as worktrees and removed again."""

from __future__ import annotations

import json
import subprocess

import pytest

from benchmarks import ab


def test_a_revision_against_itself_meets_no_claim(tmp_path, capsys):
    try:
        ab.git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    worktrees = ab.git("worktree", "list")
    out = tmp_path / "verdict.json"
    assert ab.main(["--base", "HEAD", "--head", "HEAD", "--workload", "burst", "--pairs", "1",
                    "--seconds", "0.2", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert json.loads(capsys.readouterr().out) == verdict
    assert verdict["base"] == verdict["head"] == ab.git("rev-parse", "HEAD")
    result = verdict["workloads"]["burst"]["1"]
    # Same revision, same seed: the same work on both sides.
    assert result["runs"]["base"] == result["runs"]["head"]
    assert result["runs"]["base"][0]["correct"]
    with open(ab.os.path.join(ab.ROOT, "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for row in result["metrics"].values():
        assert row["wins"] in ("0/1", "1/1") and row["met"] is False  # below 10 pairs
        assert row["base"]["q1"] <= row["base"]["median"] <= row["base"]["q3"]
        assert [len(values) for values in row["values"].values()] == [1, 1]
    assert ab.git("worktree", "list") == worktrees  # both removed


def test_met_needs_ten_pairs_nine_wins_and_the_median_past_the_quartile():
    lower = {"better": "lower"}
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    assert ab.verdict(lower, base, [b - 0.5 for b in base])["met"]
    assert ab.verdict(lower, base, [b - 0.5 for b in base])["wins"] == "10/10"
    assert not ab.verdict(lower, base[:9], [b - 0.5 for b in base[:9]])["met"]  # 9 pairs
    assert not ab.verdict(lower, base, [b - 0.01 for b in base])["met"]  # inside the quartile
    two_lost = [b - 0.5 for b in base[:8]] + [b + 0.1 for b in base[8:]]
    assert ab.verdict(lower, base, two_lost)["wins"] == "8/10"
    assert not ab.verdict(lower, base, two_lost)["met"]
    assert ab.verdict({"better": "higher"}, base, [b + 0.5 for b in base])["met"]
