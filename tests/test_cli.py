"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.filters import FilterSpec, Verdict

from tests.conftest import in_packet, out_packet, tcp_pair

#: Every (sub)command's options, one row each (see :func:`option_table`).
OPTIONS = pathlib.Path(__file__).resolve().parent / "data" / "cli_options.json"


def option_table(parser, path="repro"):
    """{command path: one row per option}: option strings (or the
    positional's dest), dest, default, choices, nargs, action class and
    type converter."""
    table = {path: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(option_table(sub, f"{path} {name}"))
            continue
        table[path].append([
            action.option_strings or [action.dest], action.dest, action.default,
            list(action.choices) if action.choices else None, action.nargs,
            type(action).__name__, getattr(action.type, "__name__", None),
        ])
    return table


@pytest.fixture
def trace_path(tmp_path):
    path = str(tmp_path / "cli_trace.pcap")
    code = main(["trace", "--out", path, "--duration", "10", "--rate", "6",
                 "--seed", "3"])
    assert code == 0
    return path


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "commands" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_plan_requires_connections(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_every_command_keeps_its_options(self):
        """The filter flags of filter, serve, fleet serve and swarm come
        from one declaration; every command's options (help text aside)
        stay as pinned."""
        table = json.loads(json.dumps(option_table(build_parser())))
        assert table == json.loads(OPTIONS.read_text(encoding="utf-8"))


class TestTrace:
    def test_writes_pcap(self, trace_path, capsys):
        import os

        assert os.path.getsize(trace_path) > 1000

    def test_headers_only_snaplen(self, tmp_path):
        path = str(tmp_path / "headers.pcap")
        assert main(["trace", "--out", path, "--duration", "5", "--rate", "4",
                     "--snaplen", "64"]) == 0
        from repro.net.pcap import read_pcap

        assert all(len(record.data) <= 64 for record in read_pcap(path))


class TestAnalyze:
    def test_reports_distribution(self, trace_path, capsys):
        assert main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out
        assert "connections" in out
        assert "upload share" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(tmp_path / "nope.pcap")])
        assert exit_info.value.code == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "{pcap}"],
    ["filter", "{pcap}"],
    ["figures", "{pcap}"],
    ["serve", "--source", "pcap", "--pcap", "{pcap}"],
    ["feed", "unix:/nonexistent.sock", "--pcap", "{pcap}"],
    ["fleet", "serve", "--pcap", "{pcap}"],
])
def test_missing_input_pcap_is_a_usage_error(tmp_path, capsys, argv):
    # Every command that reads an input pcap stores it in ``args.pcap``;
    # main() checks it once, before any handler runs.
    missing = str(tmp_path / "missing.pcap")
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(pcap=missing) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"repro: error: cannot read {missing}" in err
    assert "Traceback" not in err


#: Flag sets that do not give one RED band: a lone threshold, and
#: ``--auto-red`` (which derives both) beside one.
HALF_BANDS = {
    "low-only": ["--low-mbps", "0.05"],
    "high-only": ["--high-mbps", "0.5"],
}
AUTO_RED_BANDS = {
    "auto-red-low": ["--auto-red", "--low-mbps", "0.05"],
    "auto-red-high": ["--auto-red", "--high-mbps", "0.5"],
}


def assert_band_refused(monkeypatch, capsys, argv):
    """``argv`` is a usage error naming both thresholds, raised before
    any trace is read or generated."""
    import repro.cli as cli

    def no_trace(*args, **kwargs):
        raise AssertionError("a trace was read or generated")

    monkeypatch.setattr(cli, "_trace_generator", no_trace)
    monkeypatch.setattr(cli, "_load_table", no_trace)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--low-mbps" in captured.err and "--high-mbps" in captured.err
    assert captured.out == ""


class TestFilter:
    @pytest.mark.parametrize("flags", [*HALF_BANDS.values(), *AUTO_RED_BANDS.values()],
                             ids=[*HALF_BANDS, *AUTO_RED_BANDS])
    def test_half_red_band_is_a_usage_error(self, monkeypatch, capsys, flags):
        assert_band_refused(monkeypatch, capsys, ["filter", "--batched", *flags])

    def test_bitmap_replay(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "bitmap"]) == 0
        out = capsys.readouterr().out
        assert "inbound drop rate" in out
        assert "filter memory: 512 KiB" in out

    def test_auto_red(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "bitmap", "--auto-red"]) == 0
        assert "RED L=" in capsys.readouterr().out

    def test_spi_replay(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "spi"]) == 0
        assert "spi" in capsys.readouterr().out

    def test_counting_replay(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "counting",
                     "--size-bits", "16"]) == 0
        assert "counting-bitmap" in capsys.readouterr().out

    def test_none_filter(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "none",
                     "--no-blocklist"]) == 0
        out = capsys.readouterr().out
        assert "inbound drop rate: 0.00%" in out

    def test_hole_punching_flag(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "bitmap",
                     "--hole-punching"]) == 0

    @pytest.mark.parametrize("flags, verdict", [
        (["--hole-punching"], Verdict.PASS),
        ([], Verdict.DROP),
    ], ids=["hole-punching", "strict"])
    def test_naive_filter_takes_the_field_mode(self, flags, verdict):
        """An inbound packet from another port of the peer the inside
        socket sent to passes only when the remote port is ignored."""
        args = build_parser().parse_args(["filter", "--filter", "naive"] + flags)
        naive, _ = FilterSpec.from_args(args).build()
        assert naive.process(out_packet(tcp_pair(dport=6000), t=1.0)) is Verdict.PASS
        assert naive.process(in_packet(tcp_pair(dport=7000).inverse, t=1.5)) is verdict

    def test_sharded_replay(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "bitmap",
                     "--workers", "2", "--shard-bits", "1"]) == 0
        out = capsys.readouterr().out
        # The trace's hosts all sit in 10.1.0.0/24, inside the first /17.
        assert "engine: parallel x2 (1 of 2 shards carried packets)" in out
        assert "hint: every client packet landed in shard 10.1.0.0/17;" in out
        assert "inbound drop rate" in out

    def test_sharded_replay_over_the_hosts_subnet(self, trace_path, capsys):
        assert main(["filter", trace_path, "--filter", "bitmap",
                     "--workers", "2", "--network", "10.1.0.0/24"]) == 0
        out = capsys.readouterr().out
        assert "engine: parallel x2 (2 of 4 shards carried packets)" in out
        assert "hint:" not in out


class TestFilterSynthetic:
    def test_filter_without_pcap_synthesizes(self, capsys):
        assert main(["filter", "--filter", "bitmap", "--duration", "8",
                     "--rate", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "synthesizing trace" in out
        assert "inbound drop rate" in out


class TestPlan:
    def test_paper_scenario(self, capsys):
        assert main(["plan", "--connections", "15000", "--target-p", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "bitmap" in out
        assert "capacity" in out

    def test_rejects_bad_expiry(self, capsys):
        with pytest.raises(ValueError):
            main(["plan", "--connections", "1000", "--expiry", "400"])


class TestSwarm:
    ARGS = ["swarm", "--peers", "4", "--clients", "2", "--duration", "30",
            "--seed", "7"]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "penetration probability" in out
        assert "evasion=on" in out
        assert "fingerprint" in out

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        import json

        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        for path in paths:
            assert main(self.ARGS + ["--json", path]) == 0
        first, second = (open(path).read() for path in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["attempts"]["total"] > 0

    def test_no_evasion_flag(self, capsys):
        assert main(self.ARGS + ["--no-evasion"]) == 0
        assert "evasion=off" in capsys.readouterr().out

    def test_retune_direct(self, capsys):
        assert main(self.ARGS + ["--pd", "0", "--retune-mbps", "0.5"]) == 0
        assert "retune (direct)" in capsys.readouterr().out

    def test_filter_kinds_parse(self):
        parser = build_parser()
        for kind in ("bitmap", "counting", "spi", "chain"):
            args = parser.parse_args(["swarm", "--filter", kind])
            assert args.filter_name == kind


class TestFigures:
    def test_figures_from_pcap(self, trace_path, capsys):
        assert main(["figures", trace_path]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 4" in out
        assert "Figure 8" in out
        assert "Figure 9-b" in out

    def test_figures_synthetic(self, capsys):
        assert main(["figures", "--duration", "8", "--rate", "5"]) == 0
        out = capsys.readouterr().out
        assert "synthesizing trace" in out
        assert "Table 2" in out


class TestServeAndCtl:
    @pytest.mark.parametrize("flags", HALF_BANDS.values(), ids=HALF_BANDS)
    def test_half_red_band_is_a_usage_error(self, monkeypatch, capsys, flags):
        assert_band_refused(monkeypatch, capsys, ["serve", "--duration", "5", *flags])

    def test_serve_flat_out_generator(self, capsys):
        assert main(["serve", "--source", "generator", "--duration", "8",
                     "--rate", "5", "--seed", "3", "--chunk-size", "256",
                     "--size-bits", "12", "--vectors", "3", "--hashes", "2",
                     "--low-mbps", "0.1", "--high-mbps", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "serving generator" in out
        assert "verdict fingerprint:" in out

    def test_serve_then_ctl_roundtrip(self, tmp_path, capsys):
        import threading

        sock = str(tmp_path / "ctl.sock")
        address = f"unix:{sock}"
        box = {}

        def daemon():
            box["rc"] = main([
                "serve", "--source", "generator", "--duration", "20",
                "--rate", "6", "--seed", "5", "--chunk-size", "512",
                "--speed", "40", "--size-bits", "12", "--vectors", "3",
                "--hashes", "2", "--low-mbps", "0.1", "--high-mbps", "1.0",
                "--control", address, "--snapshot-dir", str(tmp_path),
            ])

        thread = threading.Thread(target=daemon, daemon=True)
        thread.start()
        import time

        deadline = time.monotonic() + 10.0
        while not (tmp_path / "ctl.sock").exists():
            assert time.monotonic() < deadline, "control socket never appeared"
            time.sleep(0.02)

        assert main(["ctl", address, "health"]) == 0
        assert main(["ctl", address, "config", "--low-mbps", "0.5",
                     "--high-mbps", "2.0"]) == 0
        assert main(["ctl", address, "snapshot"]) == 0
        assert main(["ctl", address, "stats"]) == 0
        assert main(["ctl", address, "shutdown"]) == 0
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert box["rc"] == 0
        out = capsys.readouterr().out
        assert '"status": "running"' in out
        assert '"low_mbps": 0.5' in out
        assert "snapshot-00000001.json" in out
        assert '"drop_policy"' in out

    def test_ctl_against_dead_socket(self, tmp_path, capsys):
        rc = main(["ctl", f"unix:{tmp_path / 'gone.sock'}", "health"])
        assert rc == 1
        assert "control error" in capsys.readouterr().err

    def test_ctl_config_requires_params(self, tmp_path, capsys):
        rc = main(["ctl", f"unix:{tmp_path / 'gone.sock'}", "config"])
        assert rc in (1, 2)


class TestFeed:
    def test_feed_socket_source(self, tmp_path, capsys):
        """`repro feed` streams binary frames a SocketSource decodes."""
        import threading

        from repro.service.sources import SocketSource

        path = str(tmp_path / "feed.sock")
        source = SocketSource.unix(path)
        received = []

        def consume():
            received.extend(source)

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            assert main(["feed", f"unix:{path}", "--duration", "3",
                         "--rate", "5", "--seed", "2",
                         "--chunk-size", "64"]) == 0
        finally:
            consumer.join(timeout=5.0)
            source.close()
        out = capsys.readouterr().out
        assert "binary frames" in out
        assert sum(len(chunk) for chunk in received) > 0
        # Pool-delta frames: pair ids stay stable across received chunks.
        seen = {}
        for chunk in received:
            for position in range(len(chunk)):
                pair = chunk.pair(position)
                assert seen.setdefault(pair, chunk.pair_ids[position]) == \
                    chunk.pair_ids[position]


class TestFleet:
    def test_fleet_parser_tree(self):
        parser = build_parser()
        args = parser.parse_args(["fleet", "serve", "--keying", "hash",
                                  "--shards", "3", "--rolling-restart"])
        assert args.shards == 3 and args.rolling_restart
        args = parser.parse_args(["fleet", "status", "/tmp/x"])
        assert args.workdir == "/tmp/x"
        args = parser.parse_args(["fleet", "ctl", "/tmp/x", "config",
                                  "--low-mbps", "0.5"])
        assert args.command == "config" and args.low_mbps == 0.5
        with pytest.raises(SystemExit):
            parser.parse_args(["fleet", "serve", "--keying", "geo"])

    @pytest.mark.parametrize("flags", HALF_BANDS.values(), ids=HALF_BANDS)
    def test_half_red_band_is_a_usage_error(self, monkeypatch, capsys, tmp_path,
                                            flags):
        assert_band_refused(monkeypatch, capsys, [
            "fleet", "serve", "--workdir", str(tmp_path / "fleet"), *flags])

    def test_fleet_status_without_manifest(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["fleet", "status", str(tmp_path)])

    def test_fleet_serve_rejects_bad_shard_args(self, tmp_path):
        with pytest.raises(SystemExit, match="keying hash"):
            main(["fleet", "serve", "--keying", "subnet", "--shards", "3"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["fleet", "serve", "--keying", "hash", "--shards", "2",
                  "--kill-shard", "5"])

    def test_fleet_serve_end_to_end(self, tmp_path, capsys):
        """A tiny 2-shard fleet through the CLI, verified offline."""
        assert main(["fleet", "serve",
                     "--workdir", str(tmp_path / "fleet"),
                     "--keying", "subnet", "--shard-bits", "1",
                     "--duration", "6", "--rate", "5", "--seed", "5",
                     "--chunk-size", "512", "--size-bits", "12",
                     "--vectors", "3", "--hashes", "2",
                     "--verify-offline"]) == 0
        out = capsys.readouterr().out
        assert "fleet fingerprint:" in out
        assert "offline verification: fingerprint and blocklist identical" in out
