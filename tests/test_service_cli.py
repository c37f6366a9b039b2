"""CLI entry point: argument mapping, subprocess boot, SIGTERM drain."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.service.cli import _build_parser, build_config, main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestArgumentMapping:
    def test_defaults(self):
        config = build_config(_build_parser().parse_args([]))
        assert config.host == "127.0.0.1"
        assert config.port == 8123
        assert config.workers == 2
        assert config.coalesce_ms == 0.0
        assert config.request_log is True

    def test_full_flag_set(self):
        args = _build_parser().parse_args(
            [
                "--host", "0.0.0.0", "--port", "0", "--workers", "4",
                "--coalesce-ms", "7.5", "--max-coalesce", "16",
                "--queue-limit", "3", "--seed", "42",
                "--table-convention", "diversity_only",
                "--max-sweep-points", "100", "--drain-timeout-s", "1.5",
                "--no-request-log",
            ]
        )
        config = build_config(args)
        assert (config.host, config.port, config.workers) == ("0.0.0.0", 0, 4)
        assert config.coalesce_ms == 7.5
        assert config.max_coalesce == 16
        assert config.queue_limit == 3
        assert config.seed == 42
        assert config.table_convention == "diversity_only"
        assert config.max_sweep_points == 100
        assert config.drain_timeout_s == 1.5
        assert config.request_log is False

    def test_invalid_value_exits_2(self, capsys):
        assert main(["--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_unknown_convention_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["--table-convention", "bogus"])


class TestSubprocess:
    def test_boot_announce_query_and_graceful_sigterm(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--workers", "0", "--coalesce-ms", "1",
                "--seed", "5", "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            announced = json.loads(line)
            assert announced["event"] == "listening"
            assert announced["port"] > 0

            from repro.service.client import ServiceClient

            client = ServiceClient(
                announced["host"], announced["port"], timeout_s=60.0
            )
            assert client.healthz() == {"status": "ok"}
            assert client.ebar(0.001, 2, 2, 2)["e_bar"] > 0.0

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
