"""Tests for the streaming filter daemon (repro.service.service).

The headline test is the ISSUE's acceptance criterion: a paced service
run interrupted by snapshot + warm restart mid-trace must produce a
final blocklist and verdict fingerprint identical to the same trace
replayed offline through :func:`repro.sim.replay.replay`.
"""

import asyncio
import json
import os
import socket
import struct
import threading
import time

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.net.stream import FrameWriter, encode_table, write_frame
from repro.service import (
    ControlClient,
    FilterService,
    GeneratorSource,
    IdleSource,
    ServiceError,
    SocketSource,
    TableSource,
    latest_snapshot,
    read_snapshot,
)
from repro.sim.pipeline import SequentialBackend
from repro.sim.replay import replay
from repro.workload import TraceConfig, TraceGenerator

CHUNK = 512


def make_filter():
    return BitmapPacketFilter(
        BitmapFilterConfig(
            size=2 ** 12, vectors=3, hashes=2, rotate_interval=5.0
        ),
        drop_controller=DropController.red_mbps(0.1, 1.0),
    )


def trace_config():
    return TraceConfig(duration=20.0, connection_rate=6.0, seed=5)


def generator_source():
    return GeneratorSource(TraceGenerator(trace_config()), chunk_size=CHUNK)


def offline_result():
    return replay(
        TraceGenerator(trace_config()).iter_tables(CHUNK),
        make_filter(),
        batched=True,
        record_fingerprint=True,
    )


def chunks_in_latest_snapshot(directory):
    """``chunks_done`` of the newest snapshot, or -1 when none exists."""
    path = latest_snapshot(directory)
    return -1 if path is None else read_snapshot(path)["chunks_done"]


def run_in_thread(service):
    """Run a service's event loop in a daemon thread; returns (thread, box)
    where ``box["result"]``/``box["error"]`` is filled on exit."""
    box = {}

    def runner():
        try:
            box["result"] = service.run_forever()
        except BaseException as error:  # noqa: BLE001 - surfaced by caller
            box["error"] = error

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    return thread, box


def wait_for_socket(path, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.01)
    raise TimeoutError(f"control socket never appeared: {path}")


def wait_for_chunks(client, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = client.health()
        if health["chunks_done"] >= minimum:
            return health
        time.sleep(0.01)
    raise TimeoutError(f"service never reached {minimum} chunks")


def blocklist_entries(result):
    store = result.router.blocklist
    return dict(store._blocked)


class TestWarmRestart:
    def test_snapshot_restart_matches_offline_replay(self, tmp_path):
        """Acceptance: paced run -> snapshot mid-trace -> shutdown ->
        restore -> finish; blocklist + fingerprint identical to offline
        replay of the full trace."""
        sock = str(tmp_path / "ctl.sock")
        service = FilterService(
            generator_source(),
            make_filter(),
            speed=40.0,
            snapshot_dir=str(tmp_path),
            control=f"unix:{sock}",
        )
        thread, box = run_in_thread(service)
        wait_for_socket(sock)
        with ControlClient(f"unix:{sock}") as client:
            wait_for_chunks(client, 3)
            snapshot_path = client.snapshot()
            summary = client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "error" not in box
        assert summary["chunks_done"] >= 3

        document = read_snapshot(snapshot_path)
        assert document["chunks_done"] >= 3

        restored = FilterService.restore(snapshot_path, generator_source())
        resumed = restored.run_forever()

        reference = offline_result()
        assert resumed.fingerprint == reference.fingerprint
        assert resumed.packets == reference.packets
        assert resumed.inbound_packets == reference.inbound_packets
        assert resumed.inbound_dropped == reference.inbound_dropped
        assert blocklist_entries(resumed) == blocklist_entries(reference)
        assert resumed.router.passed._bins == reference.router.passed._bins

    def test_restore_from_directory_uses_latest(self, tmp_path):
        sock = str(tmp_path / "ctl.sock")
        service = FilterService(
            generator_source(),
            make_filter(),
            speed=40.0,
            snapshot_dir=str(tmp_path),
            control=f"unix:{sock}",
        )
        thread, _ = run_in_thread(service)
        wait_for_socket(sock)
        with ControlClient(f"unix:{sock}") as client:
            wait_for_chunks(client, 2)
            first = client.snapshot()
            wait_for_chunks(client, 4)
            second = client.snapshot()
            client.shutdown()
        thread.join(timeout=10.0)
        assert latest_snapshot(str(tmp_path)) == second != first

        restored = FilterService.restore(str(tmp_path), generator_source())
        assert restored.chunks_done == read_snapshot(second)["chunks_done"]
        resumed = restored.run_forever()
        assert resumed.fingerprint == offline_result().fingerprint

    def test_restore_missing_snapshot(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FilterService.restore(str(tmp_path), generator_source())


class TestUninterruptedRun:
    def test_flat_out_matches_offline_replay(self):
        service = FilterService(generator_source(), make_filter())
        result = service.run_forever()
        reference = offline_result()
        assert result.fingerprint == reference.fingerprint
        assert result.packets == reference.packets
        assert blocklist_entries(result) == blocklist_entries(reference)
        assert service.finished

    def test_sequential_backend(self):
        service = FilterService(
            generator_source(), make_filter(), SequentialBackend()
        )
        result = service.run_forever()
        assert result.fingerprint == offline_result().fingerprint

    def test_run_twice_rejected(self):
        service = FilterService(generator_source(), make_filter())
        service.run_forever()
        with pytest.raises(ServiceError, match="already finished"):
            service.run_forever()


class TestControlActions:
    def test_reconfigure_red_thresholds_and_rotation(self):
        async def scenario():
            service = FilterService(
                generator_source(), make_filter(), speed=40.0
            )
            run_task = asyncio.create_task(service.run())
            # Reconfigure mid-run: once the first chunk is through, not
            # after a fixed sleep the first chunk's generation can outlast.
            deadline = asyncio.get_running_loop().time() + 5.0
            while (service.chunks_done < 1
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.01)
            applied = await service.reconfigure(
                low_mbps=0.25, high_mbps=2.5, rotate_interval=8.0
            )
            await service.drain()
            result = await run_task
            return service, applied, result

        service, applied, result = asyncio.run(scenario())
        assert applied == {
            "low_mbps": 0.25, "high_mbps": 2.5, "rotate_interval": 8.0
        }
        policy = service.filter.drop_controller.policy
        assert policy.low == pytest.approx(0.25e6)
        assert policy.high == pytest.approx(2.5e6)
        assert service.filter.core.config.rotate_interval == 8.0
        assert result.packets > 0

    def test_reconfigure_rejects_unknown_keys(self):
        async def scenario():
            service = FilterService(
                generator_source(), make_filter(), speed=40.0
            )
            run_task = asyncio.create_task(service.run())
            await asyncio.sleep(0.02)
            with pytest.raises(ServiceError, match="unknown config keys"):
                await service.reconfigure(frobnicate=1)
            with pytest.raises(ServiceError, match="need 0 <= low < high"):
                await service.reconfigure(low_mbps=5.0, high_mbps=1.0)
            await service.shutdown()
            await run_task

        asyncio.run(scenario())

    def test_drain_finalizes_early(self):
        async def scenario():
            # A small queue bounds how much a slow paced run can have
            # buffered, so the drain demonstrably cuts the trace short.
            service = FilterService(
                generator_source(), make_filter(), speed=5.0, queue_depth=2
            )
            run_task = asyncio.create_task(service.run())
            await asyncio.sleep(0.1)
            summary = await service.drain()
            result = await run_task
            return service, summary, result

        service, summary, result = asyncio.run(scenario())
        assert service.finished
        assert summary["fingerprint"] == result.fingerprint
        assert summary["packets"] == result.packets
        # Everything queued was processed, but not the whole trace.
        assert 0 < result.packets < offline_result().packets

    def test_snapshot_without_dir_rejected(self):
        async def scenario():
            service = FilterService(
                generator_source(), make_filter(), speed=40.0
            )
            run_task = asyncio.create_task(service.run())
            await asyncio.sleep(0.02)
            with pytest.raises(ServiceError, match="no snapshot_dir"):
                await service.request_snapshot()
            await service.shutdown()
            await run_task

        asyncio.run(scenario())

    def test_actions_after_finish_rejected(self):
        service = FilterService(generator_source(), make_filter())
        service.run_forever()

        async def late():
            await service.drain()

        with pytest.raises(ServiceError, match="not running"):
            asyncio.run(late())


class TestPeriodicSnapshots:
    def test_snapshotter_writes_files(self, tmp_path):
        async def scenario():
            service = FilterService(
                generator_source(),
                make_filter(),
                speed=30.0,
                snapshot_dir=str(tmp_path),
                snapshot_interval=0.05,
            )
            run_task = asyncio.create_task(service.run())
            deadline = asyncio.get_running_loop().time() + 5.0
            # The snapshotter also fires while the first chunk is still
            # being generated (a cold generator takes longer than one
            # interval), so wait for a snapshot taken after a chunk.
            while chunks_in_latest_snapshot(str(tmp_path)) < 1:
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.02)
            await service.shutdown()
            return await run_task

        asyncio.run(scenario())
        written = latest_snapshot(str(tmp_path))
        assert written is not None
        document = read_snapshot(written)
        assert document["chunks_done"] >= 1
        assert document["pipeline"]["fingerprint"] is not None

    def test_interval_requires_dir(self):
        with pytest.raises(ValueError, match="needs a snapshot_dir"):
            FilterService(
                generator_source(), make_filter(), snapshot_interval=1.0
            )


class TestIdleService:
    def test_idle_shutdown_reports_empty_summary(self):
        async def scenario():
            service = FilterService(
                IdleSource(poll_interval=0.01), make_filter()
            )
            run_task = asyncio.create_task(service.run())
            await asyncio.sleep(0.05)
            summary = await service.shutdown()
            await run_task
            return summary

        summary = asyncio.run(scenario())
        assert summary["packets"] == 0
        assert summary["chunks_done"] == 0

    def test_restored_service_can_idle(self, tmp_path):
        """A restored filter with an idle source stays warm: the
        blocklist and counters survive into the new process."""
        sock = str(tmp_path / "ctl.sock")
        service = FilterService(
            generator_source(),
            make_filter(),
            speed=40.0,
            snapshot_dir=str(tmp_path),
            control=f"unix:{sock}",
        )
        thread, _ = run_in_thread(service)
        wait_for_socket(sock)
        with ControlClient(f"unix:{sock}") as client:
            wait_for_chunks(client, 3)
            snapshot_path = client.snapshot()
            client.shutdown()
        thread.join(timeout=10.0)

        document = read_snapshot(snapshot_path)

        async def scenario():
            restored = FilterService.restore(
                snapshot_path, IdleSource(poll_interval=0.01)
            )
            run_task = asyncio.create_task(restored.run())
            await asyncio.sleep(0.05)
            summary = await restored.shutdown()
            await run_task
            return restored, summary

        restored, summary = asyncio.run(scenario())
        assert summary["chunks_done"] == document["chunks_done"]
        pipeline = restored.stepper.pipeline
        assert pipeline.fingerprint == document["pipeline"]["fingerprint"]
        assert len(pipeline.router.blocklist) == len(
            document["router"]["blocklist"]["blocked"]
        )
        assert len(pipeline.router.blocklist) > 0


class TestValidation:
    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            FilterService(generator_source(), make_filter(), speed=0.0)

    def test_rejects_bad_queue_depth(self):
        with pytest.raises(ValueError):
            FilterService(generator_source(), make_filter(), queue_depth=0)

    def test_table_source_service(self):
        table = TraceGenerator(trace_config()).table()
        service = FilterService(
            TableSource(table, chunk_size=CHUNK), make_filter()
        )
        result = service.run_forever()
        assert result.fingerprint == offline_result().fingerprint


class TestBadFrames:
    """A feed that turns bad mid-stream ends the service promptly with a
    named error, having filtered exactly the good frames before it."""

    GOOD_FRAMES = 4

    @staticmethod
    def json_rows(chunk):
        """One packet row as JSON, a text payload that is no table frame."""
        pair = chunk.pair(0)
        return json.dumps([[
            chunk.timestamps[0], pair.protocol, pair.src_addr, pair.src_port,
            pair.dst_addr, pair.dst_port, chunk.sizes[0], chunk.flags[0],
            chunk.outbound[0], "",
        ]]).encode()

    @staticmethod
    def cut_off(chunk):
        """A length prefix promising the whole frame, then half of it."""
        payload = encode_table(chunk)
        return struct.pack("!I", len(payload)) + payload[:len(payload) // 2]

    @pytest.mark.parametrize("bad_frame", ["json-rows", "cut-off"])
    def test_bad_frame_ends_service_with_framing_error(self, tmp_path,
                                                       bad_frame):
        chunks = list(TraceGenerator(
            TraceConfig(duration=20.0, connection_rate=6.0, seed=4)
        ).iter_tables(CHUNK))
        good = chunks[:self.GOOD_FRAMES]
        path = str(tmp_path / "feed.sock")
        service = FilterService(SocketSource.unix(path), make_filter())
        thread, box = run_in_thread(service)

        connection = socket.socket(socket.AF_UNIX)
        connection.connect(path)
        stream = connection.makefile("wb")
        try:
            writer = FrameWriter(stream)
            for chunk in good:
                writer.send(chunk)
            following = chunks[self.GOOD_FRAMES]
            if bad_frame == "json-rows":
                write_frame(stream, self.json_rows(following))
            else:
                stream.write(self.cut_off(following))
                stream.flush()
        finally:
            stream.close()
            connection.close()

        thread.join(timeout=30.0)
        assert not thread.is_alive(), "service hung on a bad frame"
        assert "error" not in box
        assert str(service.ingest_error).startswith("FramingError")
        reference = replay(iter(good), make_filter(), batched=True,
                           record_fingerprint=True)
        result = box["result"]
        assert result.packets == reference.packets == CHUNK * len(good)
        assert result.fingerprint == reference.fingerprint
