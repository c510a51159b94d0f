"""Tests for the closed-loop swarm engine.

The heavier closed-loop properties (evasion frontier, recovery at scale)
live in benchmarks/bench_swarm.py; these tests pin the engine's
semantics on small, fast engagements.
"""

import json
import os
import tempfile

import pytest

from repro.core.autotune import TargetRateController
from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode
from repro.core.dropper import StaticDropPolicy
from repro.filters.base import AcceptAllFilter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.swarm import (
    ControlApplier,
    DirectApplier,
    EvasionPolicy,
    RetuneLoop,
    SwarmConfig,
    SwarmSimulator,
    TACTIC_HOLE_PUNCH,
    TACTIC_INITIAL,
    launch_control_service,
)

from tests.conftest import PassFirstPackets


def small_config(**overrides):
    defaults = dict(peers=6, clients=2, duration=45.0, seed=7,
                    background_rate=0.5)
    defaults.update(overrides)
    return SwarmConfig(**defaults)


def assert_every_connection_resolved(result):
    """Each inbound attempt and each background connection ends admitted
    or refused."""
    assert (result.attempts_total
            == result.attempts_admitted + result.attempts_refused)
    assert (result.background_total
            == result.background_admitted + result.background_refused)


def bitmap_filter(pd=1.0, field_mode=FieldMode.STRICT, size=2 ** 14):
    return BitmapPacketFilter(
        BitmapFilterConfig(size=size, vectors=4, hashes=3,
                           rotate_interval=5.0, field_mode=field_mode,
                           seed=1),
        DropController(StaticDropPolicy(pd)),
    )


class TestAdmission:
    def test_accept_all_admits_every_attempt(self):
        result = SwarmSimulator(AcceptAllFilter(), small_config()).run()
        assert result.attempts_total > 0
        assert result.attempts_refused == 0
        assert result.penetration_probability == 1.0
        assert result.evasion_onset is None
        assert result.refusal_times == []

    def test_always_drop_strict_refuses_every_attempt(self):
        result = SwarmSimulator(bitmap_filter(pd=1.0), small_config()).run()
        assert result.attempts_total > 0
        assert result.attempts_admitted == 0
        assert result.penetration_probability == 0.0
        assert result.peers_penetrated == 0

    def test_refusal_times_surface_in_order(self):
        result = SwarmSimulator(bitmap_filter(pd=1.0), small_config()).run()
        assert len(result.refusal_times) == result.attempts_refused
        assert result.refusal_times == sorted(result.refusal_times)
        assert result.evasion_onset == result.refusal_times[0]

    def test_losses_past_the_window_still_admit(self):
        # Every connection passes its first 3 packets and loses the rest;
        # losses past the window are recoverable, so each one is admitted.
        result = SwarmSimulator(
            PassFirstPackets(3),
            SwarmConfig(peers=8, clients=2, duration=60.0, seed=1),
        ).run()
        assert result.attempts_total > 0
        assert result.attempts_refused == 0
        assert_every_connection_resolved(result)

    def test_reverse_connections_escape_the_filter(self):
        # Client-initiated dials mark outbound first: upload rides out
        # even at P_d = 1 (the locality dynamic the paper concedes).
        result = SwarmSimulator(bitmap_filter(pd=1.0), small_config()).run()
        assert result.reverse_connections > 0
        assert result.reverse_upload_bytes > 0
        assert result.burst_upload_bytes == 0  # no inbound link ever formed


class TestEvasion:
    def test_evasion_off_attempts_are_initial_only(self):
        config = small_config(evasion=EvasionPolicy.off())
        result = SwarmSimulator(bitmap_filter(pd=1.0), config).run()
        assert set(result.tactic_attempts) == {TACTIC_INITIAL}
        assert result.hole_punch_probes == 0

    def test_evasion_multiplies_attempt_pressure(self):
        refused_off = SwarmSimulator(
            bitmap_filter(pd=1.0), small_config(evasion=EvasionPolicy.off())
        ).run()
        refused_on = SwarmSimulator(
            bitmap_filter(pd=1.0), small_config()
        ).run()
        assert refused_on.attempts_total > refused_off.attempts_total
        assert len(refused_on.tactic_attempts) > 1

    def test_chains_respect_max_attempts(self):
        config = small_config(evasion=EvasionPolicy(max_attempts=2))
        result = SwarmSimulator(bitmap_filter(pd=1.0), config).run()
        # Per (peer, target) chain: 1 initial + at most 2 reactions; with
        # 6 peers x 2 clients that bounds total attempts.
        assert result.attempts_total <= 6 * 2 * 3


class TestHolePunch:
    def test_punch_fails_under_strict_fields(self):
        result = SwarmSimulator(bitmap_filter(pd=1.0), small_config()).run()
        assert result.hole_punch_probes > 0
        assert result.tactic_successes.get(TACTIC_HOLE_PUNCH, 0) == 0

    def test_punch_succeeds_under_hole_punching_fields(self):
        result = SwarmSimulator(
            bitmap_filter(pd=1.0, field_mode=FieldMode.HOLE_PUNCHING),
            small_config(),
        ).run()
        assert result.tactic_successes.get(TACTIC_HOLE_PUNCH, 0) > 0
        assert result.peers_penetrated > 0


class TestBackground:
    def test_collateral_only_counts_background(self):
        result = SwarmSimulator(bitmap_filter(pd=1.0), small_config()).run()
        assert result.background_total > 0
        assert result.background_refused <= result.background_total
        # Client-initiated background passes the positive listing; only
        # remote-initiated legs (FTP active data) can be collateral.
        assert set(result.background_refused_by_initiator) <= {"remote"}

    def test_no_background_when_rate_zero(self):
        result = SwarmSimulator(
            bitmap_filter(pd=1.0), small_config(background_rate=0.0)
        ).run()
        assert result.background_total == 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        first = SwarmSimulator(bitmap_filter(pd=0.9), small_config()).run()
        second = SwarmSimulator(bitmap_filter(pd=0.9), small_config()).run()
        assert_every_connection_resolved(first)
        assert (json.dumps(first.as_dict(), sort_keys=True)
                == json.dumps(second.as_dict(), sort_keys=True))
        assert first.replay.fingerprint == second.replay.fingerprint

    def test_different_seed_different_engagement(self):
        first = SwarmSimulator(
            bitmap_filter(pd=0.9), small_config(seed=7)
        ).run()
        second = SwarmSimulator(
            bitmap_filter(pd=0.9), small_config(seed=8)
        ).run()
        assert first.replay.fingerprint != second.replay.fingerprint


class TestRetune:
    def _run(self, applier_factory, duration=120.0):
        config = small_config(duration=duration)
        drop_controller = DropController(StaticDropPolicy(0.0))
        packet_filter = BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** 14, seed=1), drop_controller
        )
        loop = RetuneLoop(
            TargetRateController.mbps(0.5, gain=0.4),
            applier_factory(packet_filter, drop_controller),
            interval=5.0,
        )
        result = SwarmSimulator(packet_filter, config, retune=loop).run()
        return result, loop

    def test_retune_probes_fire_and_steer(self):
        result, loop = self._run(
            lambda flt, dc: DirectApplier(dc), duration=60.0
        )
        assert len(result.retune_log) == 12  # every 5s over 60s
        assert any(p > 0.0 for _, _, p in result.retune_log)

    def test_control_plane_matches_direct_apply(self):
        direct, _ = self._run(lambda flt, dc: DirectApplier(dc),
                              duration=60.0)

        handles = []

        def control_applier(packet_filter, drop_controller):
            sock = os.path.join(tempfile.mkdtemp(prefix="swarm-test-"),
                                "ctl.sock")
            handle = launch_control_service(packet_filter, "unix:" + sock)
            handles.append(handle)
            return ControlApplier(handle.client())

        try:
            control, _ = self._run(control_applier, duration=60.0)
        finally:
            for handle in handles:
                handle.close()
        assert (json.dumps(direct.as_dict(), sort_keys=True)
                == json.dumps(control.as_dict(), sort_keys=True))

    def test_recovery_time_reported(self):
        result, loop = self._run(lambda flt, dc: DirectApplier(dc),
                                 duration=150.0)
        assert result.evasion_onset is not None
        assert result.recovery_time is not None
        assert result.recovery_time >= 0.0


class TestConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SwarmConfig(peers=0)
        with pytest.raises(ValueError):
            SwarmConfig(clients=0)
        with pytest.raises(ValueError):
            SwarmConfig(duration=0.0)
        with pytest.raises(ValueError):
            SwarmConfig(background_rate=-1.0)
