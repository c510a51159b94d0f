"""The shard-daemon handle: one supervised ``repro serve`` subprocess.

A :class:`ShardDaemon` handle launches, pings and stops one shard:
``launch`` spawns a full :class:`~repro.service.service.FilterService`
as a child process listening on a unix *feed* socket (binary columnar
frames, :mod:`repro.net.stream`) and a unix *control* socket (JSON
lines, :mod:`repro.service.control`), with its own snapshot directory.

The handle owns the feed connection (a stateful
:class:`~repro.net.stream.FrameWriter`, so frames carry pool deltas) and
talks to the daemon through short-lived
:class:`~repro.service.control.ControlClient` connections.  Restart
semantics are exact: :meth:`relaunch` respawns the process — warm from
the latest snapshot when one exists — and the supervisor resends the
shard's entire retained frame stream; the restored service's
``source.skip(chunks_done)`` discards the already-processed prefix
(decoding it first, so the receiver's interned pool stays in lockstep
with the resent delta frames), and processing resumes frame-exact.
"""

from __future__ import annotations

import os
import socket as socket_module
import subprocess
import sys
import time
from typing import IO, List, Optional

from repro.net.stream import FrameWriter
from repro.net.table import PacketTable
from repro.service.control import ControlClient, ControlError
from repro.service.state import latest_snapshot


class FleetError(RuntimeError):
    """A shard daemon failed to boot, respond, or recover."""


def _log_tail(path: str, lines: int = 12) -> str:
    try:
        with open(path, "r", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return "<no log>"


class ShardDaemon:
    """Lifecycle handle for one shard's filter-service subprocess."""

    #: How long ``launch`` waits for the child's control socket.
    BOOT_TIMEOUT = 20.0

    def __init__(
        self,
        lane: int,
        label: str,
        workdir: str,
        serve_args: List[str],
        boot_timeout: float = BOOT_TIMEOUT,
    ) -> None:
        self.lane = lane
        self.label = label
        self.workdir = workdir
        self.serve_args = list(serve_args)
        self.boot_timeout = boot_timeout
        self.feed_path = os.path.join(workdir, f"shard-{lane}.feed.sock")
        self.control_path = os.path.join(workdir, f"shard-{lane}.ctl.sock")
        self.snapshot_dir = os.path.join(workdir, f"shard-{lane}.snapshots")
        self.log_path = os.path.join(workdir, f"shard-{lane}.log")
        self.process: Optional[subprocess.Popen] = None
        self.frames_sent = 0
        self.restarts = 0
        self._log: Optional[IO[bytes]] = None
        self._feed_socket: Optional[socket_module.socket] = None
        self._feed_stream = None
        self._writer: Optional[FrameWriter] = None

    # -- addresses ------------------------------------------------------

    @property
    def control_address(self) -> str:
        return f"unix:{self.control_path}"

    @property
    def feed_address(self) -> str:
        return f"unix:{self.feed_path}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def has_snapshot(self) -> bool:
        return (os.path.isdir(self.snapshot_dir)
                and latest_snapshot(self.snapshot_dir) is not None)

    def client(
        self,
        timeout: Optional[float] = 30.0,
        connect_retry: Optional[float] = None,
    ) -> ControlClient:
        """A fresh control connection to this daemon."""
        return ControlClient(
            self.control_address, timeout, connect_retry=connect_retry
        )

    # -- lifecycle ------------------------------------------------------

    def launch(self) -> None:
        if self.alive:
            return
        self._spawn(restore=False)

    def relaunch(self, restore: bool) -> None:
        """Respawn the daemon (warm from its latest snapshot when
        ``restore``); the caller resends the retained frame stream."""
        self._close_feed()
        self._reap()
        self.restarts += 1
        self._spawn(restore=restore)

    def restart(self) -> None:
        """Crash recovery: respawn warm when a snapshot exists, cold
        otherwise (either way the supervisor's full resend is exact)."""
        self.relaunch(restore=self.has_snapshot())

    def _spawn(self, restore: bool) -> None:
        os.makedirs(self.snapshot_dir, exist_ok=True)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--source", "socket",
            "--feed", self.feed_address,
            "--control", self.control_address,
            "--snapshot-dir", self.snapshot_dir,
        ]
        if restore:
            argv += ["--restore", self.snapshot_dir]
        else:
            argv += self.serve_args
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        self._wait_ready()
        self._connect_feed()
        self.frames_sent = 0

    def _wait_ready(self) -> None:
        """Poll the control socket until the child answers ``health`` —
        interleaved with process-liveness checks so a child that died on
        boot fails fast with its log tail instead of timing out."""
        deadline = time.monotonic() + self.boot_timeout
        while True:
            if self.process is None or self.process.poll() is not None:
                raise FleetError(
                    f"shard {self.label} exited during boot "
                    f"(rc={self.process.returncode if self.process else '?'}):\n"
                    f"{_log_tail(self.log_path)}"
                )
            try:
                with self.client(timeout=5.0, connect_retry=1.0) as client:
                    client.health()
                return
            except (ControlError, OSError):
                if time.monotonic() >= deadline:
                    raise FleetError(
                        f"shard {self.label} control socket not ready "
                        f"after {self.boot_timeout:.0f}s"
                    )

    def _connect_feed(self) -> None:
        sock = socket_module.socket(socket_module.AF_UNIX)
        try:
            sock.connect(self.feed_path)
        except OSError:
            sock.close()
            raise
        self._feed_socket = sock
        self._feed_stream = sock.makefile("wb")
        self._writer = FrameWriter(self._feed_stream)

    def send(self, chunk: PacketTable) -> None:
        """Write one lane chunk as a binary frame (pool-delta encoded)."""
        if self._writer is None:
            raise FleetError(f"shard {self.label} has no feed connection")
        self._writer.send(chunk)
        self.frames_sent += 1

    def ping(self) -> dict:
        """Process liveness plus the daemon's own health view."""
        report = {
            "lane": self.lane,
            "label": self.label,
            "pid": self.process.pid if self.process else None,
            "restarts": self.restarts,
            "frames_sent": self.frames_sent,
        }
        if not self.alive:
            report["status"] = "down"
            report["returncode"] = (
                self.process.returncode if self.process else None
            )
            return report
        try:
            with self.client(timeout=5.0) as client:
                health = client.health()
        except (ControlError, OSError) as error:
            report["status"] = "unreachable"
            report["error"] = str(error)
            return report
        report["status"] = health.get("status", "unknown")
        report["chunks_done"] = health.get("chunks_done", 0)
        report["queue_depth"] = health.get("queue_depth", 0)
        return report

    def kill(self) -> None:
        """Hard-kill the child (crash injection; tests and chaos drills)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def stop(self) -> None:
        """Graceful teardown: close the feed (EOF finalizes the service)
        and reap; escalate to shutdown-then-kill if the child lingers."""
        self._close_feed()
        if self.process is not None and self.process.poll() is None:
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                try:
                    with self.client(timeout=5.0) as client:
                        client.shutdown()
                except (ControlError, OSError):
                    pass
                try:
                    self.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        self._reap()

    def wait(self, timeout: Optional[float] = None) -> int:
        if self.process is None:
            return 0
        return self.process.wait(timeout=timeout)

    # -- internals ------------------------------------------------------

    def _close_feed(self) -> None:
        for closer in (self._feed_stream, self._feed_socket):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._feed_stream = None
        self._feed_socket = None
        self._writer = None

    def _reap(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None
