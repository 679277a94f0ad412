"""Tests for the command-line interface."""

import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import load_result


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_account_defaults(self):
        args = build_parser().parse_args(["account"])
        assert args.dataset == "brazil"
        assert args.epsilon == 1.0

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_account_output(self, capsys):
        assert main(["account", "--dataset", "brazil", "--scale", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Age" in out
        assert "Privelet+" in out
        assert "variance bound" in out

    def test_account_matches_paper_sa(self, capsys):
        main(["account", "--dataset", "brazil"])
        out = capsys.readouterr().out
        assert "'Age'" in out and "'Gender'" in out

    def test_figure_accuracy_small(self, capsys):
        code = main(
            [
                "figure",
                "fig6",
                "--scale",
                "0.05",
                "--rows",
                "3000",
                "--queries",
                "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon = 0.5" in out
        assert "Basic" in out

    def test_publish_round_trip(self, tmp_path, capsys):
        output = tmp_path / "release.npz"
        code = main(
            [
                "publish",
                str(output),
                "--scale",
                "0.05",
                "--rows",
                "2000",
                "--epsilon",
                "1.0",
                "--mechanism",
                "privelet+",
            ]
        )
        assert code == 0
        assert output.exists()
        result = load_result(output)
        assert result.epsilon == 1.0
        assert result.matrix.total == pytest.approx(2000, abs=600)
        assert np.isfinite(result.matrix.values).all()

    def test_query_round_trip(self, tmp_path, capsys):
        output = tmp_path / "release.npz"
        main(
            [
                "publish",
                str(output),
                "--scale",
                "0.05",
                "--rows",
                "2000",
                "--mechanism",
                "privelet+",
            ]
        )
        capsys.readouterr()
        code = main(
            ["query", str(output), "--queries", "7", "--confidence", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "7 random range-count queries" in out
        assert "90% intervals" in out
        assert "noise std" in out
        assert "mean noise std" in out

    def test_query_errors_exit_cleanly(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "missing.npz")]) == 2
        assert "error:" in capsys.readouterr().err
        output = tmp_path / "release.npz"
        main(["publish", str(output), "--scale", "0.05", "--rows", "500"])
        capsys.readouterr()
        assert main(["query", str(output), "--confidence", "1.0"]) == 2
        assert "confidence" in capsys.readouterr().err

    def test_publish_coefficients_round_trip(self, tmp_path, capsys):
        output = tmp_path / "release.npz"
        code = main(
            [
                "publish",
                str(output),
                "--scale",
                "0.05",
                "--rows",
                "2000",
                "--mechanism",
                "privelet+",
                "--representation",
                "coefficients",
            ]
        )
        assert code == 0
        assert "representation=coefficients" in capsys.readouterr().out
        result = load_result(output)
        assert result.representation == "coefficients"
        # Serving straight from the archive's coefficient backend.
        assert main(["query", str(output), "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "coefficients backend" in out

    def test_figure_accepts_representation(self, capsys):
        code = main(
            [
                "figure",
                "fig6",
                "--scale",
                "0.05",
                "--rows",
                "1500",
                "--queries",
                "300",
                "--representation",
                "coefficients",
            ]
        )
        assert code == 0
        assert "Basic" in capsys.readouterr().out

    def test_publish_sharded_round_trip(self, tmp_path, capsys):
        output = tmp_path / "sharded.npz"
        code = main(
            [
                "publish",
                str(output),
                "--scale",
                "0.05",
                "--rows",
                "2000",
                "--shard-by",
                "Age",
                "--shards",
                "3",
                "--representation",
                "coefficients",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "representation=sharded" in out
        assert "3 shards by 'Age'" in out
        result = load_result(output)
        assert result.representation == "sharded"
        assert result.release.num_shards == 3
        assert result.details["shard_by"] == "Age"
        # The archive serves through the unchanged query command.
        assert main(["query", str(output), "--queries", "4"]) == 0
        assert "sharded backend" in capsys.readouterr().out

    def test_publish_sharded_rejects_nominal_attribute(self, tmp_path, capsys):
        code = main(
            [
                "publish",
                str(tmp_path / "bad.npz"),
                "--scale",
                "0.05",
                "--rows",
                "500",
                "--shard-by",
                "Occupation",
            ]
        )
        assert code == 2
        assert "ordinal" in capsys.readouterr().err

    def test_publish_basic(self, tmp_path):
        output = tmp_path / "basic.npz"
        assert (
            main(
                [
                    "publish",
                    str(output),
                    "--mechanism",
                    "basic",
                    "--scale",
                    "0.05",
                    "--rows",
                    "1000",
                ]
            )
            == 0
        )
        assert load_result(output).noise_magnitude == 2.0


class TestServe:
    """The JSONL serving loop: answers and errors are both structured."""

    @pytest.fixture
    def archives(self, tmp_path, capsys):
        paths = {}
        for name, dataset in (("br", "brazil"), ("us", "us")):
            path = tmp_path / f"{name}.npz"
            assert (
                main(
                    [
                        "publish",
                        str(path),
                        "--dataset",
                        dataset,
                        "--scale",
                        "0.05",
                        "--rows",
                        "1000",
                        "--representation",
                        "coefficients",
                        "--seed",
                        "1",
                    ]
                )
                == 0
            )
            paths[name] = path
        capsys.readouterr()
        return paths

    def _serve(self, monkeypatch, capsys, argv, lines):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(argv)
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        return code, responses, captured.err

    def test_serves_two_releases(self, archives, monkeypatch, capsys):
        code, responses, err = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archives["br"]), str(archives["us"])],
            [
                '{"id": 1, "release": "br", "ranges": {"Age": [10, 40]}}',
                '{"id": 2, "release": "us", "ranges": {"Age": [0, 30]}}',
                '{"id": 3, "release": "br", "ranges": {}}',
            ],
        )
        assert code == 0
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert all(np.isfinite(r["estimate"]) for r in responses)
        assert all(r["lower"] <= r["estimate"] <= r["upper"] for r in responses)
        assert "serving 2 release(s)" in err
        assert "served 3 request(s)" in err

    def test_unknown_release_is_structured_error(
        self, archives, monkeypatch, capsys
    ):
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archives["br"])],
            [
                '{"id": 1, "release": "nope", "ranges": {}}',
                '{"id": 2, "release": "br", "ranges": {}}',
            ],
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "unknown-release"
        assert responses[0]["id"] == 1
        assert responses[1]["ok"] is True  # the bad request hurt only itself

    def test_malformed_jsonl_is_structured_error(
        self, archives, monkeypatch, capsys
    ):
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archives["br"])],
            [
                "this is not json",
                '{"id": 2, "release": "br", "ranges": {"Bogus": [0, 1]}}',
                '{"id": 3, "release": "br", "unknown_field": 1}',
                '{"id": 4, "release": "br"}',
            ],
        )
        assert code == 0
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert responses[0]["code"] == "bad-request"
        assert "malformed JSON" in responses[0]["error"]
        assert responses[1]["code"] == "bad-request"  # unknown attribute
        assert responses[2]["code"] == "bad-request"  # unknown field
        assert responses[3]["id"] == 4

    def test_list_and_stats_ops(self, archives, monkeypatch, capsys):
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archives["br"]), str(archives["us"])],
            [
                '{"op": "list"}',
                '{"id": 1, "release": "br", "ranges": {}}',
                '{"op": "stats", "id": 99}',
            ],
        )
        assert code == 0
        listing = responses[0]
        assert listing["ok"] and [r["name"] for r in listing["releases"]] == [
            "br",
            "us",
        ]
        # Archives are lazy: nothing is loaded before the first query.
        assert all(r["loaded"] is False for r in listing["releases"])
        stats = responses[2]
        assert stats["id"] == 99
        assert stats["stats"]["requests"] == 1
        assert stats["stats"]["engines_built"] == 1
        assert stats["stats"]["releases"] == ["br", "us"]

    def test_name_equals_path_override(self, archives, monkeypatch, capsys):
        code, responses, err = self._serve(
            monkeypatch,
            capsys,
            ["serve", f"brazil-2026={archives['br']}"],
            ['{"id": 1, "release": "brazil-2026", "ranges": {}}'],
        )
        assert code == 0
        assert responses[0]["ok"] is True
        assert responses[0]["release"] == "brazil-2026"

    def test_path_containing_equals_is_served(
        self, archives, tmp_path, monkeypatch, capsys
    ):
        """A filename with '=' (e.g. eps=1.0.npz) is a path, not a
        NAME=PATH override, as long as it exists on disk."""
        path = tmp_path / "eps=1.0.npz"
        path.write_bytes(archives["br"].read_bytes())
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(path)],
            ['{"id": 1, "release": "eps=1.0", "ranges": {}}'],
        )
        assert code == 0
        assert responses[0]["ok"] is True

    def test_truncated_archive_exits_cleanly(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "truncated.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 40)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_names_exit_cleanly(self, archives, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["serve", str(archives["br"]), str(archives["br"])])
        assert code == 2
        assert "already registered" in capsys.readouterr().err

    def test_missing_archive_exits_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["serve", str(tmp_path / "absent.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestStreamingCommands:
    def _ingest(self, archive, seed):
        return main(
            [
                "ingest",
                str(archive),
                "--scale",
                "0.05",
                "--rows",
                "500",
                "--seed",
                str(seed),
            ]
        )

    def test_ingest_creates_archive_and_stages(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        assert self._ingest(archive, 5) == 0
        out = capsys.readouterr().out
        assert "created stream archive" in out
        assert "staged 500 rows" in out
        assert archive.exists()
        assert (tmp_path / "events.npz.staging.npz").exists()

    def test_repeated_ingest_accumulates(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._ingest(archive, 5)
        self._ingest(archive, 6)
        out = capsys.readouterr().out
        assert "(1000 pending)" in out

    def test_advance_epoch_publishes_staged_rows(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._ingest(archive, 5)
        assert main(["advance-epoch", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "closed epoch 0: published 500 rows" in out
        assert "stream now has 1 epochs" in out
        # Staging consumed.
        assert not (tmp_path / "events.npz.staging.npz").exists()

    def test_advance_multiple_epochs(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._ingest(archive, 5)
        assert main(["advance-epoch", str(archive), "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "closed epoch 3: published 0 rows" in out
        assert "stream now has 4 epochs, 7 tree nodes" in out

    def test_query_time_range(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._ingest(archive, 5)
        main(["advance-epoch", str(archive), "--epochs", "4"])
        capsys.readouterr()
        code = main(
            [
                "query",
                str(archive),
                "--queries",
                "4",
                "--time-range",
                "1",
                "3",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 random range-count queries" in out
        assert "stream backend" in out

    def test_query_time_range_on_flat_archive_errors(self, tmp_path, capsys):
        archive = tmp_path / "flat.npz"
        main(["publish", str(archive), "--scale", "0.05", "--rows", "500"])
        capsys.readouterr()
        code = main(["query", str(archive), "--time-range", "0", "1"])
        assert code == 2
        assert "not a stream archive" in capsys.readouterr().err

    def test_query_time_range_past_prefix_errors(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._ingest(archive, 5)
        main(["advance-epoch", str(archive)])
        capsys.readouterr()
        code = main(["query", str(archive), "--time-range", "0", "9"])
        assert code == 2
        assert "outside the closed prefix" in capsys.readouterr().err

    def test_ingest_into_non_stream_archive_errors(self, tmp_path, capsys):
        archive = tmp_path / "flat.npz"
        main(["publish", str(archive), "--scale", "0.05", "--rows", "500"])
        capsys.readouterr()
        code = self._ingest(archive, 5)
        assert code == 2
        assert "not a stream archive" in capsys.readouterr().err


class TestServeInteractiveClient:
    def test_request_response_client_is_not_deadlocked(self, capsys, monkeypatch):
        """Regression: a client that waits for each response before
        sending its next request must get answers while stdin is idle
        (the loop used to flush only when the *next* line arrived)."""
        import threading

        import repro.cli as cli
        from repro.core.publish import publish
        from repro.serving.server import ReleaseServer

        responses = threading.Semaphore(0)

        class GatedStream(io.StringIO):
            def write(self, text):
                count = super().write(text)
                if text.endswith("\n"):
                    responses.release()
                return count

        answered = []

        def request_lines():
            for index in range(3):
                yield json.dumps(
                    {"id": index, "release": "r", "ranges": {"value": [0, 8]}}
                ) + "\n"
                # Strict request/response: wait for the answer before the
                # next request ever becomes available on "stdin".
                answered.append(responses.acquire(timeout=10.0))

        stream = GatedStream()
        with ReleaseServer() as server:
            server.register(
                "r",
                publish(np.arange(32, dtype=float), 1.0, mechanism="privelet", seed=0),
            )
            served = cli._serve_loop(server, request_lines(), stream)
        assert served == 3
        assert answered == [True, True, True]
        lines = [json.loads(line) for line in stream.getvalue().strip().splitlines()]
        assert [line["id"] for line in lines] == [0, 1, 2]
        assert all(line["ok"] for line in lines)


class TestStreamingCommandGuards:
    """Regressions from review: staged rows survive failures, fixed
    publishing flags cannot silently diverge from the archive."""

    def _create(self, archive):
        assert (
            main(
                [
                    "ingest",
                    str(archive),
                    "--scale",
                    "0.05",
                    "--rows",
                    "200",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )

    def test_bad_epochs_preserves_staging(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._create(archive)
        staging = tmp_path / "events.npz.staging.npz"
        assert staging.exists()
        assert main(["advance-epoch", str(archive), "--epochs", "0"]) == 2
        assert "--epochs must be at least 1" in capsys.readouterr().err
        assert staging.exists()  # the only copy of the rows survives
        # And the rows still publish afterwards.
        assert main(["advance-epoch", str(archive)]) == 0
        assert "published 200 rows" in capsys.readouterr().out
        assert not staging.exists()

    def test_conflicting_epsilon_rejected(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._create(archive)
        code = main(
            ["ingest", str(archive), "--scale", "0.05", "--rows", "10", "--epsilon", "5"]
        )
        assert code == 2
        assert "conflicts with the archive's epsilon" in capsys.readouterr().err

    def test_conflicting_mechanism_rejected(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._create(archive)
        code = main(
            [
                "ingest",
                str(archive),
                "--scale",
                "0.05",
                "--rows",
                "10",
                "--mechanism",
                "basic",
            ]
        )
        assert code == 2
        assert "conflicts with the archive's mechanism" in capsys.readouterr().err

    def test_conflicting_schema_rejected(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._create(archive)
        code = main(["ingest", str(archive), "--scale", "0.2", "--rows", "10"])
        assert code == 2
        assert "--dataset/--scale" in capsys.readouterr().err

    def test_matching_flags_accepted(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        self._create(archive)
        code = main(
            [
                "ingest",
                str(archive),
                "--scale",
                "0.05",
                "--rows",
                "10",
                "--epsilon",
                "1.0",
                "--mechanism",
                "privelet+",
                "--epoch-length",
                "1",
            ]
        )
        assert code == 0
        assert "staged 10 rows" in capsys.readouterr().out

    def test_zero_epoch_length_rejected_at_creation(self, tmp_path, capsys):
        archive = tmp_path / "events.npz"
        code = main(
            [
                "ingest",
                str(archive),
                "--scale",
                "0.05",
                "--rows",
                "10",
                "--epoch-length",
                "0",
            ]
        )
        assert code == 2
        assert "--epoch-length must be at least 1" in capsys.readouterr().err
        assert not archive.exists()

    def test_failed_ingest_rewrite_preserves_staging(self, tmp_path, monkeypatch):
        """The staging rewrite goes through a temp file + os.replace, so
        a crash mid-write leaves the previous sidecar intact."""
        archive = tmp_path / "events.npz"
        self._create(archive)
        staging = tmp_path / "events.npz.staging.npz"
        before = staging.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", explode)
        code = main(["ingest", str(archive), "--scale", "0.05", "--rows", "10"])
        assert code == 2
        assert staging.read_bytes() == before


class TestColumnarCli:
    """The columnar fast path over the CLI: op=query_batch on the JSONL
    serving loop."""

    @pytest.fixture
    def archive(self, tmp_path, capsys):
        path = tmp_path / "br.npz"
        assert (
            main(
                [
                    "publish",
                    str(path),
                    "--scale",
                    "0.05",
                    "--rows",
                    "1000",
                    "--representation",
                    "coefficients",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return path

    def _serve(self, monkeypatch, capsys, argv, lines):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(argv)
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        return code, responses, captured.err

    def test_serve_query_batch_round_trip(self, archive, monkeypatch, capsys):
        batch = {
            "op": "query_batch",
            "id": 1,
            "release": "br",
            "ranges": {"Age": {"lo": [10, 0, 5], "hi": [40, 101, 5]}},
        }
        scalar = '{"id": 2, "release": "br", "ranges": {"Age": [10, 40]}}'
        code, responses, err = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archive)],
            [json.dumps(batch), scalar],
        )
        assert code == 0
        assert [r["id"] for r in responses] == [1, 2]
        assert responses[0]["ok"] is True
        assert responses[0]["count"] == 3
        assert len(responses[0]["estimates"]) == 3
        # Row 0 of the batch is the same box the scalar request asks.
        assert responses[0]["estimates"][0] == responses[1]["estimate"]
        assert responses[0]["noise_stds"][0] == responses[1]["noise_std"]
        assert responses[0]["lowers"][0] == responses[1]["lower"]
        assert responses[0]["uppers"][0] == responses[1]["upper"]
        # Degenerate row answers exactly zero.
        assert responses[0]["estimates"][2] == 0.0
        assert responses[0]["noise_stds"][2] == 0.0
        assert "served 2 request(s)" in err

    def test_serve_batch_errors_are_structured(self, archive, monkeypatch, capsys):
        lines = [
            json.dumps(
                {
                    "op": "query_batch",
                    "id": 1,
                    "release": "br",
                    "ranges": {"Bogus": {"lo": [0], "hi": [1]}},
                }
            ),
            json.dumps(
                {
                    "op": "query_batch",
                    "id": 2,
                    "release": "br",
                    "ranges": {"Age": {"lo": [0], "hi": [500]}},
                }
            ),
            json.dumps(
                {
                    "op": "query_batch",
                    "id": 3,
                    "release": "br",
                    "ranges": {"Age": {"lo": [0.5], "hi": [1]}},
                }
            ),
            json.dumps(
                {
                    "op": "query_batch",
                    "id": 4,
                    "release": "br",
                    "ranges": {"Age": {"lo": [0], "hi": [10]}},
                }
            ),
        ]
        code, responses, _ = self._serve(
            monkeypatch, capsys, ["serve", str(archive)], lines
        )
        assert code == 0
        assert [r["id"] for r in responses] == [1, 2, 3, 4]
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert all(r["code"] == "bad-request" for r in responses[:3])

    def test_serve_rejects_non_integral_scalar_bounds(
        self, archive, monkeypatch, capsys
    ):
        """Regression: a float bound used to silently truncate (39.7 ->
        39) and answer the wrong box; the JSONL loop must reject it."""
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archive)],
            [
                '{"id": 1, "release": "br", "ranges": {"Age": [10, 39.7]}}',
                '{"id": 2, "release": "br", "ranges": {"Age": [10, 39.0]}}',
            ],
        )
        assert code == 0
        assert responses[0]["ok"] is False
        assert responses[0]["code"] == "bad-request"
        assert "must be an integer" in responses[0]["error"]
        # An integral float is fine JSON and still served.
        assert responses[1]["ok"] is True

    def test_serve_stats_show_plan_cache(self, archive, monkeypatch, capsys):
        batch = json.dumps(
            {
                "op": "query_batch",
                "id": 1,
                "release": "br",
                "ranges": {"Age": {"lo": [0, 1], "hi": [10, 11]}},
            }
        )
        code, responses, _ = self._serve(
            monkeypatch,
            capsys,
            ["serve", str(archive)],
            [batch, batch.replace('"id": 1', '"id": 2'), '{"op": "stats"}'],
        )
        assert code == 0
        stats = responses[-1]["stats"]
        # One compiled shape either way; whether the second batch shows
        # as a hit depends on whether the loop read both lines before
        # answering (one grouped pass, one lookup) or apart (two).
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_hits"] in (0, 1)
        assert stats["plan_cache_evictions"] == 0
        assert stats["columnar_rows"] == 4
        assert stats["requests"] == 4


class TestServeTcp:
    """`serve --tcp`: readiness banner, TCP answers, SIGTERM drain."""

    def test_bad_tcp_spec_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "r.npz"
        assert (
            main(
                [
                    "publish", str(path), "--scale", "0.05", "--rows", "500",
                    "--representation", "coefficients",
                ]
            )
            == 0
        )
        assert main(["serve", str(path), "--tcp", "nope"]) == 2
        assert "--tcp expects HOST:PORT" in capsys.readouterr().err

    def test_sigterm_drains_queued_responses(self, tmp_path, capsys):
        """SIGTERM must flush every response already owed, then exit 0."""
        import os
        import signal as _signal
        import socket
        import subprocess
        import sys

        path = tmp_path / "census.npz"
        assert (
            main(
                [
                    "publish", str(path), "--scale", "0.05", "--rows", "1000",
                    "--representation", "coefficients",
                ]
            )
            == 0
        )
        capsys.readouterr()
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", f"census={path}",
                "--tcp", "127.0.0.1:0", "--workers", "2",
            ],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert banner.startswith("listening on ")
            host, port = banner.split()[2].rsplit(":", 1)
            sock = socket.create_connection((host, int(port)), timeout=30)
            with sock, sock.makefile("rwb") as stream:
                for index in range(6):
                    stream.write(
                        (
                            json.dumps(
                                {
                                    "op": "query",
                                    "release": "census",
                                    "ranges": {"Age": [0, 10]},
                                    "id": index,
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                stream.flush()
                first = json.loads(stream.readline())
                assert first["ok"] is True and first["id"] == 0
                # Five responses still owed when the signal lands.
                proc.send_signal(_signal.SIGTERM)
                drained = [first]
                for _ in range(5):
                    raw = stream.readline()
                    assert raw, "queued response lost during SIGTERM drain"
                    drained.append(json.loads(raw))
                assert [r["id"] for r in drained] == list(range(6))
                assert all(r["ok"] for r in drained)
                assert stream.readline() == b""  # then the socket closes
            summary = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "served" in summary and "respawn" in summary
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
