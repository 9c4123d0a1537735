"""Tests for the drep-sim CLI (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_fig1_small(self, capsys):
        rc = main(["fig1", "--n-jobs", "150", "--m-values", "1", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SRPT" in out and "DREP" in out and "RR" in out
        assert "finance" in out

    def test_fig2_small(self, capsys):
        rc = main(
            ["fig2", "--n-jobs", "150", "--m-values", "1", "4", "--distribution", "bing"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SWF" in out and "bing" in out

    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--n-jobs", "15", "--m", "2", "--loads", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "steal-first" in out and "admit-first" in out

    def test_fig3_workers_zero_means_all_cores(self, capsys):
        argv = ["fig3", "--n-jobs", "8", "--m", "2"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "0"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("command", ["fig1", "fig3", "faults"])
    def test_negative_workers_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "-1"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_preemptions(self, capsys):
        rc = main(["preemptions", "--n-jobs", "500", "--m", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "within_switch_bound" in out
        assert "True" in out

    def test_stats(self, capsys):
        rc = main(["stats", "--distribution", "bing", "--samples", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cv" in out and "p99" in out

    def test_report(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        rc = main(
            ["report", "--out", str(out_path), "--flow-jobs", "60", "--ws-jobs", "8"]
        )
        assert rc == 0
        assert out_path.exists()
        assert "Figure 3" in out_path.read_text()

    def test_hetero(self, capsys):
        rc = main(["hetero", "--n-jobs", "200", "--machine", "1x2+2x1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DREP-rel" in out and "1x2+2x1" in out

    def test_hetero_geometric_spec(self, capsys):
        rc = main(["hetero", "--n-jobs", "100", "--machine", "geometric:3:2"])
        assert rc == 0
        assert "reseat" in capsys.readouterr().out

    def test_figures(self, tmp_path, capsys):
        import json

        rows = [
            {"m": 1, "scheduler": "SRPT", "mean_flow": 1.0},
            {"m": 2, "scheduler": "SRPT", "mean_flow": 0.9},
        ]
        (tmp_path / "fig1x.json").write_text(json.dumps(rows))
        rc = main(["figures", "--results-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig1x.svg").exists()

    def test_figures_empty_dir(self, tmp_path):
        rc = main(["figures", "--results-dir", str(tmp_path)])
        assert rc == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig9"])
