"""The failover drill's two ladders run end to end at tiny sizes.

- **The arming ladder** re-arms a promoted one-shard cluster at each
  size: the successor's ready plane holds every live slice, and each
  size publishes the spread of ``arming_ms`` and the collector passes
  inside each run.
- **The promotion ladder** builds the lag's creates alone and takes its
  rescales in place: slice records, PLMN claims, calendar windows and
  profiles are counted per create, the in-place rescales per rescale.
"""

from __future__ import annotations

from benchmarks import failover_drill
from benchmarks.failover_drill import (
    LAG_CREATES,
    LAG_DELETES,
    LAG_RESCALES,
    run_arming_ladder,
    run_promotion_ladder,
)

SIZES = (1, 3)
REPEATS = 2


def test_the_arming_ladder_rearms_a_promoted_shard_at_each_size(tmp_path, monkeypatch):
    monkeypatch.setattr(failover_drill, "LADDER_SIZES", SIZES)
    monkeypatch.setattr(failover_drill, "LADDER_REPEATS", REPEATS)
    ladder = run_arming_ladder(str(tmp_path))
    assert sorted(ladder) == [str(live) for live in SIZES]
    for live in SIZES:
        point = ladder[str(live)]
        assert [run["built"] for run in point["runs"]] == [live] * REPEATS
        spread = point["arming_ms"]
        assert 0.0 < spread["q1"] <= spread["median"] <= spread["q3"]
        for run in point["runs"]:
            assert len(run["arming_gc_passes"]) == 3 and min(run["arming_gc_passes"]) >= 0


def test_the_promotion_ladder_builds_the_lags_creates_and_takes_its_rescales_in_place(
    tmp_path, monkeypatch
):
    live = LAG_RESCALES + LAG_DELETES + 2
    monkeypatch.setattr(failover_drill, "LADDER_SIZES", (live,))
    monkeypatch.setattr(failover_drill, "LADDER_REPEATS", REPEATS)
    ladder = run_promotion_ladder(str(tmp_path))
    for run in ladder[str(live)]["runs"]:
        built = [run[count] for count in (
            "lag_built", "lag_plmn_claims", "lag_calendar_windows", "lag_profiles_drawn",
        )]
        assert built == [LAG_CREATES] * 4
        assert run["lag_in_place"] == LAG_RESCALES
        assert run["lost"] == 0 and run["adopted"] == live - LAG_DELETES + LAG_CREATES
        assert len(run["promotion_gc_passes"]) == 3
