"""Parallel experiment execution: ``--jobs`` must not change a single bit.

``run_experiments`` fans whole experiments over processes; these tests pin
the reproducibility contract — parallel rows equal serial rows exactly —
plus its seed-derivation and kwargs-filtering plumbing.
"""

import numpy as np
import pytest

from repro.experiments import fig6_overlay_distance as fig6
from repro.experiments import fig7_underlay_energy as fig7
from repro.experiments.cli import _build_parser
from repro.experiments.registry import _accepted_kwargs, run_experiments


@pytest.fixture(scope="module")
def fig6_serial():
    return fig6.run(fast=True)


@pytest.fixture(scope="module")
def fig7_serial():
    return fig7.run(fast=True)


class TestBitIdentity:
    def test_registry_fanout_identical(self, fig6_serial, fig7_serial):
        results = run_experiments(["fig6", "fig7"], jobs=2, fast=True)
        assert [r.experiment_id for r in results] == ["fig6", "fig7"]
        assert results[0].rows == fig6_serial.rows
        assert results[1].rows == fig7_serial.rows


class TestSeedDerivation:
    def test_seeded_runs_match_across_jobs(self):
        serial = run_experiments(["fig8"], jobs=1, seed=42, fast=True)
        parallel = run_experiments(["fig8"], jobs=2, seed=42, fast=True)
        assert serial[0].rows == parallel[0].rows

    def test_per_task_seeds_follow_seedsequence_spawn(self):
        children = np.random.SeedSequence(7).spawn(2)
        expected = int(children[1].generate_state(1)[0])
        results = run_experiments(["fig8", "fig8"], seed=7, fast=True)
        direct = fig8_run(seed=expected)
        assert results[1].rows == direct.rows

    def test_unseeded_runs_use_experiment_defaults(self):
        from repro.experiments.registry import run_experiment

        assert (
            run_experiments(["fig8"], fast=True)[0].rows
            == run_experiment("fig8", fast=True).rows
        )


def fig8_run(seed):
    from repro.experiments import fig8_beam_pattern

    return fig8_beam_pattern.run(seed=seed, fast=True)


class TestKwargsFiltering:
    def test_jobs_dropped_for_experiments_without_support(self):
        kwargs = _accepted_kwargs("fig8", {"fast": True, "jobs": 4, "seed": 1})
        assert kwargs == {"fast": True, "seed": 1}

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_experiments(["fig6"], jobs=0)


class TestCli:
    def test_all_and_report_accept_jobs_flag(self, tmp_path):
        assert _build_parser().parse_args(["all", "--jobs", "3"]).jobs == 3
        report = _build_parser().parse_args(
            ["report", str(tmp_path / "r.md"), "--jobs", "3"]
        )
        assert report.jobs == 3

    def test_jobs_default_is_serial(self, tmp_path):
        assert _build_parser().parse_args(["all"]).jobs == 1
        assert _build_parser().parse_args(["report", str(tmp_path / "r.md")]).jobs == 1

    def test_nonpositive_jobs_rejected_by_every_subcommand(self, capsys):
        parser = _build_parser()
        for argv in (
            ["all", "--jobs", "0"],
            ["report", "r.md", "--jobs", "-2"],
        ):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert "must be >= 1" in capsys.readouterr().err
