"""Smoke run of ``benchmarks/ab.py``: one pair of one short ``burst`` run,
base == head, both exported with ``git archive``, and no worktree left
behind."""

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
    work = ("correct", "attempted", "failed")
    assert [[{k: run[k] for k in work} for run in result["runs"][side]]
            for side in ("base", "head")] == [[{k: run[k] for k in work}
                                               for run in result["runs"]["base"]]] * 2
    assert result["runs"]["base"][0]["correct"]
    with open(ab.os.path.join(ab.ROOT, "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for row in result["metrics"].values():
        assert row["wins"] in ("0/1", "1/1") and row["met"] is False  # below 10 pairs
        assert row["base"]["q1"] <= row["base"]["median"] <= row["base"]["q3"]
        assert [len(values) for values in row["values"].values()] == [1, 1]
    for run in result["runs"]["base"] + result["runs"]["head"]:
        assert 0.0 < run["host.slowdown_p50"] <= run["host.slowdown_max"]
    assert set(result["host"]) == {"aa_spread", "flagged_pairs"}
    assert ab.git("worktree", "list") == worktrees  # none made


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


def test_a_pair_is_flagged_when_its_slowdowns_differ_beyond_the_a_a_spread():
    base = [1.00, 1.02, 1.01, 1.03, 1.00, 1.02, 1.01, 1.02, 1.00, 1.01]
    head = [1.01, 1.01, 1.02, 1.02, 1.01, 1.40, 1.00, 1.03, 1.01, 1.02]
    host = ab.flag_pairs(base, head)
    # The larger side's interquartile range of its slowdown medians.
    assert host["aa_spread"] == max(
        ab.spread(side)["q3"] - ab.spread(side)["q1"] for side in (base, head)
    )
    assert [flagged["pair"] for flagged in host["flagged_pairs"]] == [6]
    assert host["flagged_pairs"][0]["difference"] == head[5] - base[5]
    # Runs that agree flag nothing; one pair has no spread to hide in.
    assert ab.flag_pairs(base, base)["flagged_pairs"] == []
    assert ab.flag_pairs([1.0], [1.0])["flagged_pairs"] == []
    assert [f["pair"] for f in ab.flag_pairs([1.0], [1.1])["flagged_pairs"]] == [1]


def test_the_summary_prints_one_row_per_workload_seed_and_metric(monkeypatch, capsys):
    """``--summary`` follows the JSON verdict with one row per workload,
    seed and metric: medians with quartiles, change, pairs won and met."""
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    metrics = [{"name": "op_p50_ms", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    compared = {"metrics": {
        "op_p50_ms": ab.verdict(metrics[0], base, [b - 0.5 for b in base]),
        "ops_per_s": ab.verdict(metrics[1], base, base),
    }}
    monkeypatch.setattr(ab, "export", lambda rev, tree: None)
    monkeypatch.setattr(ab, "git", lambda *args: "rev")
    monkeypatch.setattr(ab, "compare", lambda *args: compared)
    assert ab.main(["--base", "x", "--head", "y", "--workload", "failover", "--workload",
                    "churn", "--seeds", "1,2", "--pairs", "10", "--summary"]) == 0
    out = capsys.readouterr().out
    text, rows = out[:out.rindex("}") + 1], out[out.rindex("}") + 1:].strip().splitlines()
    assert json.loads(text)["workloads"]["churn"]["2"] == compared
    assert [row.split(":")[0] for row in rows] == [
        f"{workload} seed {seed} {name}" for workload in ("failover", "churn")
        for seed in ("1", "2") for name in ("op_p50_ms", "ops_per_s")
    ]
    assert rows[0] == ("failover seed 1 op_p50_ms: base 1.45 [1.225, 1.675]  "
                       "head 0.95 [0.725, 1.175]  -34.5 %  won 10/10  met")
    assert rows[1].endswith("+0.0 %  won 0/10  not met")
