"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def snapshot(tmp_path):
    path = tmp_path / "cohort.json"
    code = main([
        "simulate", "--patients", "2", "--sessions", "2",
        "--duration", "50", "--out", str(path),
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.json"])
        assert args.patients == 3 and args.sessions == 2

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_serve_replay_defaults(self):
        args = build_parser().parse_args(["serve-replay", "x.json"])
        assert args.live == 3 and args.latency == 0.2


class TestCommands:
    def test_simulate_writes_snapshot(self, snapshot):
        assert snapshot.exists()
        assert snapshot.stat().st_size > 1000

    def test_inspect(self, snapshot, capsys):
        assert main(["inspect", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "P000" in out and "streams" in out

    def test_replay(self, snapshot, capsys):
        code = main([
            "replay", str(snapshot), "--patient", "P000",
            "--duration", "30", "--horizon", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean error" in out

    def test_replay_unknown_patient(self, snapshot):
        assert main(["replay", str(snapshot), "--patient", "ZZZ"]) == 2

    def test_cluster(self, snapshot, capsys):
        assert main(["cluster", str(snapshot), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "cluster 0" in out

    def test_serve_replay(self, snapshot, capsys):
        code = main([
            "serve-replay", str(snapshot), "--live", "2",
            "--duration", "20", "--latency", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 concurrent sessions" in out
        assert "frames predicted at 200 ms" in out

    def test_serve_replay_too_few_patients(self, snapshot, capsys):
        assert main(["serve-replay", str(snapshot), "--live", "9"]) == 2
        assert "only 2 patients" in capsys.readouterr().err


class TestShardedServeReplay:
    def test_workers_flag_defaults_to_single_process(self):
        args = build_parser().parse_args(["serve-replay", "x.json"])
        assert args.workers == 1

    def test_serve_replay_sharded(self, snapshot, capsys):
        code = main([
            "serve-replay", str(snapshot), "--live", "2",
            "--duration", "10", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 shard workers" in out
        assert "[shard" in out


class TestMatchModeFlag:
    def test_defaults_to_rigid(self):
        for command in ("serve-replay", "metrics"):
            args = build_parser().parse_args([command, "x.json"])
            assert args.match_mode == "rigid"

    def test_known_modes_parse(self):
        for mode in ("rigid", "normalized", "warped"):
            args = build_parser().parse_args(
                ["serve-replay", "x.json", "--match-mode", mode]
            )
            assert args.match_mode == mode

    @pytest.mark.parametrize("command", ["serve-replay", "metrics"])
    def test_unknown_mode_fails_clearly(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "x.json", "--match-mode", "fuzzy"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "fuzzy" in err

    def test_serve_replay_normalized_mode(self, snapshot, capsys):
        code = main([
            "serve-replay", str(snapshot), "--live", "2",
            "--duration", "20", "--match-mode", "normalized",
        ])
        assert code == 0
        assert "served 2 concurrent sessions" in capsys.readouterr().out


class TestArgumentBounds:
    """Malformed serving arguments exit 2 with argparse's message before
    any work starts (the snapshot path is never opened)."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("replay", "--horizon", "-0.3"),
            ("replay", "--horizon", "nan"),
            ("replay", "--horizon", "inf"),
            ("replay", "--duration", "0"),
            ("replay", "--duration", "-5"),
            ("replay", "--duration", "nan"),
            ("serve-replay", "--latency", "-1"),
            ("serve-replay", "--latency", "nan"),
            ("serve-replay", "--live", "0"),
            ("serve-replay", "--live", "-1"),
            ("serve-replay", "--workers", "0"),
            ("serve-replay", "--workers", "-2"),
            ("serve-replay", "--duration", "0"),
            ("serve-replay", "--duration", "-5"),
            ("serve-replay", "--duration", "nan"),
            ("serve-replay", "--duration", "abc"),
            ("metrics", "--latency", "-0.1"),
            ("metrics", "--live", "0"),
            ("metrics", "--duration", "inf"),
            ("metrics", "--interval", "0"),
            ("metrics", "--interval", "nan"),
        ],
    )
    def test_rejected(self, tmp_path, capsys, command, flag, value):
        argv = [command, str(tmp_path / "missing.json"), flag, value]
        if command == "replay":
            argv += ["--patient", "P000"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and repr(value) in err

    @pytest.mark.parametrize(
        "command, flag, value, parsed",
        [
            ("replay", "--horizon", "0", 0.0),
            ("serve-replay", "--latency", "0", 0.0),
            ("serve-replay", "--live", "1", 1),
            ("serve-replay", "--workers", "1", 1),
            ("serve-replay", "--duration", "0.5", 0.5),
            ("metrics", "--interval", "2.5", 2.5),
        ],
    )
    def test_bounds_are_inclusive_where_zero_is_meaningful(
        self, command, flag, value, parsed
    ):
        argv = [command, "x.json", flag, value]
        if command == "replay":
            argv += ["--patient", "P000"]
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:]) == parsed


class TestCompact:
    def test_compact_logged_directory(self, tmp_path, capsys):
        from repro.database.backend import LoggedBackend
        from repro.database.store import MotionDatabase

        from conftest import make_series

        directory = tmp_path / "store"
        db = MotionDatabase(backend=LoggedBackend(directory))
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(cycles=6))
        db.close()

        assert main(["compact", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "snapshot 1" in out and "1 streams" in out

    def test_compact_shard_root(self, tmp_path, capsys):
        from repro.analysis.experiments import CohortConfig, build_cohort
        from repro.service.sharding import partition_database

        cohort = build_cohort(CohortConfig(
            n_patients=2, sessions_per_patient=1,
            session_duration=30.0, live_duration=20.0, seed=4,
        ))
        partition_database(cohort.db, tmp_path, 2)

        assert main(["compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shard 0:" in out and "shard 1:" in out

    def test_compact_rejects_unrecognised_directory(self, tmp_path, capsys):
        # Neither manifest.json nor shard-* present: refuse loudly
        # instead of silently creating an empty backend there.
        assert main(["compact", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "neither a logged database" in err
        assert "shard-*" in err
        assert not any(tmp_path.iterdir())

    def test_compact_rejects_missing_directory(self, tmp_path, capsys):
        assert main(["compact", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestAnalyticsCommands:
    @pytest.fixture
    def store(self, tmp_path):
        """A compacted logged directory with two identical streams."""
        from repro.database.backend import LoggedBackend
        from repro.database.store import MotionDatabase

        from conftest import make_series

        directory = tmp_path / "store"
        db = MotionDatabase(backend=LoggedBackend(directory))
        db.add_patient("PA")
        db.add_stream("PA", "S00", series=make_series(cycles=6))
        db.add_stream("PA", "S01", series=make_series(cycles=6))
        db.close()
        assert main(["compact", str(directory)]) == 0
        return directory

    def test_motifs_text(self, store, capsys):
        assert main(["motifs", str(store), "--length", "4"]) == 0
        out = capsys.readouterr().out
        assert "windows of length 4" in out
        assert "#1 PA/S0" in out and "matches" in out

    def test_motifs_json(self, store, capsys):
        import json

        code = main(["motifs", str(store), "--length", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["length"] == 4 and payload["n_streams"] == 2
        assert payload["motifs"]
        top = payload["motifs"][0]
        assert top["count"] == len(top["matches"]) > 0

    def test_anomalies_text(self, store, capsys):
        assert main(["anomalies", str(store), "--length", "4"]) == 0
        out = capsys.readouterr().out
        # Twin streams: every window matches its counterpart.
        assert "0/" in out and "are anomalous" in out

    def test_anomalies_json(self, store, capsys):
        import json

        code = main(["anomalies", str(store), "--length", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_anomalies"] == 0
        assert payload["fleet_score"] == 0.0
        assert len(payload["streams"]) == 2

    @pytest.mark.parametrize("command", ["motifs", "anomalies"])
    def test_rejects_unrecognised_directory(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path)]) == 2
        assert "neither a logged database" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["motifs", "anomalies"])
    def test_rejects_missing_directory(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err
