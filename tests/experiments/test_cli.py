"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario"])
        assert args.hours == 2.0
        assert args.admission == "fcfs"

    def test_overbooking_specs(self):
        from repro.core.overbooking import (
            AdaptiveOverbooking,
            FixedOverbooking,
            NoOverbooking,
        )
        from repro.scenarios.spec import parse_overbooking

        # The parser refuses a bad string and carries a good one; the
        # spec's one parser turns it into the policy.
        parse = lambda spec: parse_overbooking(
            build_parser().parse_args(["scenario", "--overbooking", spec]).overbooking
        )
        assert isinstance(parse("none"), NoOverbooking)
        fixed = parse("fixed:2.0")
        assert isinstance(fixed, FixedOverbooking) and fixed.factor == 2.0
        adaptive = parse("adaptive:0.1")
        assert isinstance(adaptive, AdaptiveOverbooking)
        assert adaptive.violation_budget == 0.1

    def test_bad_overbooking_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--overbooking", "magic"])

    def test_mix_spec(self):
        args = build_parser().parse_args(["scenario", "--mix", "urllc"])
        assert args.mix is not None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--mix", "quantum"])


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("D1", "D5", "D10"):
            assert experiment_id in out

    def test_scenario_table(self, capsys):
        code = main(
            ["scenario", "--hours", "0.5", "--interarrival", "300", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests" in out and "net" in out

    def test_scenario_json(self, capsys):
        code = main(
            [
                "scenario",
                "--hours",
                "0.5",
                "--interarrival",
                "300",
                "--seed",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "net" in payload and "requests" in payload

    def test_scenario_with_policies(self, capsys):
        code = main(
            [
                "scenario",
                "--hours",
                "0.5",
                "--admission",
                "knapsack",
                "--overbooking",
                "fixed:1.5",
                "--mix",
                "embb",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["requests"] >= 0

    def test_sweep_table(self, capsys):
        code = main(["sweep", "--hours", "0.5", "--factors", "1.0", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "factor" in out
        assert out.count("\n") >= 3  # header + rule + 2 rows

    def test_demo_renders_dashboard(self, capsys):
        code = main(["demo", "--hours", "0.5", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "multiplexing gain" in out
        assert "--- Slices ---" in out
