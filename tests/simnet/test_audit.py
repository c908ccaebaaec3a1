"""Tests for the runtime invariant auditor.

Covers the tap plumbing (install stack, no-op default, zero state when
disabled), every law the auditor enforces, and — most importantly — a
demonstration that the auditor *catches* each of the three accounting
bugs this PR fixed, by re-introducing the legacy behaviour through
deliberately broken subclasses/fixtures.
"""

import pytest

from repro.errors import InvariantViolation, SimulationError
from repro.obs.metrics import Metrics
from repro.simnet.audit import (
    NOOP_TAP,
    AuditTap,
    InvariantAuditor,
    active_tap,
    audited,
    install,
    uninstall,
)
from repro.simnet.buffer import SharedBuffer
from repro.simnet.engine import Engine
from repro.simnet.packet import FlowKey, Packet
from repro.simnet.switch import ToRSwitch
from repro.config import BufferConfig


def data_packet(dst, size=1500, ecn_capable=True, **kwargs) -> Packet:
    return Packet(
        src="sender",
        dst=dst,
        size=size,
        payload=size - 40,
        flow=FlowKey("sender", dst, 1, 2),
        ecn_capable=ecn_capable,
        **kwargs,
    )


def tight_buffer(**overrides) -> BufferConfig:
    defaults = dict(
        shared_bytes=4000,
        dedicated_bytes_per_queue=0.0,
        alpha=1.0,
        ecn_threshold_bytes=100,
    )
    defaults.update(overrides)
    return BufferConfig(**defaults)


class TestTapPlumbing:
    def test_default_tap_is_noop(self):
        assert active_tap() is NOOP_TAP

    def test_install_uninstall_stack(self):
        auditor = InvariantAuditor()
        install(auditor)
        try:
            assert active_tap() is auditor
        finally:
            uninstall(auditor)
        assert active_tap() is NOOP_TAP

    def test_unbalanced_uninstall_rejected(self):
        with pytest.raises(InvariantViolation):
            uninstall(InvariantAuditor())

    def test_components_capture_tap_at_construction(self):
        with audited() as auditor:
            engine = Engine()
        # Built inside the scope: audited even after the scope closes.
        engine.at(1.0, lambda: None)
        engine.run()
        assert auditor.events > 0

    def test_components_outside_scope_not_audited(self):
        engine = Engine()  # built with the no-op tap
        with audited() as auditor:
            engine.at(1.0, lambda: None)
            engine.run()
        assert auditor.events == 0

    def test_audited_verifies_on_clean_exit(self):
        class Failing(InvariantAuditor):
            def verify(self):
                raise AssertionError("verify ran")

        with pytest.raises(AssertionError, match="verify ran"):
            with audited(Failing()):
                pass

    def test_audited_skips_verify_when_body_raises(self):
        class Failing(InvariantAuditor):
            def verify(self):
                raise AssertionError("verify ran")

        with pytest.raises(ValueError, match="body error"):
            with audited(Failing()):
                raise ValueError("body error")
        assert active_tap() is NOOP_TAP

    def test_noop_tap_has_all_hooks(self):
        """Every hook the auditor implements exists on the no-op base
        (the interface any tap subclasses; components call the hooks of
        every tap but NOOP_TAP, so a missing base method would only
        surface at runtime, under a tap that does not override it)."""
        base_hooks = {name for name in dir(AuditTap) if name.startswith("on_")}
        auditor_hooks = {
            name
            for name in vars(InvariantAuditor)
            if name.startswith("on_")
        }
        assert auditor_hooks <= base_hooks


class TestEngineLaws:
    def test_clean_run_no_violations(self):
        with audited() as auditor:
            engine = Engine()
            engine.at(1.0, lambda: engine.after(0.5, lambda: None))
            engine.run()
        assert auditor.violations == []

    def test_time_rewind_caught(self):
        """A component that rewinds engine time (the class of bug the
        monotonicity law exists for) is caught at the next scheduling."""
        with audited():
            engine = Engine()
        engine.at(5.0, lambda: None)
        engine.run()
        engine.now = 0.0  # simulate a buggy component rewinding time
        with pytest.raises(InvariantViolation, match="no-past-scheduling"):
            engine.at(1.0, lambda: None)

    def test_advance_below_high_water_caught(self):
        with audited() as auditor:
            engine = Engine()
        engine.at(1.0, lambda: None)  # legitimately scheduled
        # Another engine (or a buggy wall-clock bridge) pushed the
        # audited high-water mark past the pending event.
        auditor._engine_shadow(engine).high_water_time = 10.0
        with pytest.raises(InvariantViolation, match="monotonic-time"):
            engine.run()


class TestBufferLaws:
    def make(self, **overrides) -> SharedBuffer:
        return SharedBuffer(tight_buffer(**overrides))

    def test_clean_admit_release_cycle(self):
        with audited() as auditor:
            buffer = self.make(dedicated_bytes_per_queue=100.0)
            buffer.register_queue("q0")
            admissions = [buffer.admit("q0", 150) for _ in range(5)]
            for admission in admissions:
                buffer.release("q0", admission)
        assert auditor.violations == []
        assert auditor.checks > 0

    def test_silent_double_release_caught(self):
        """Releasing the same admission twice while other packets keep
        the counters positive corrupts occupancy *silently* — the buffer
        itself cannot tell; the auditor can (release-once law)."""
        with pytest.raises(InvariantViolation, match="release-once"):
            with audited():
                buffer = self.make()
                buffer.register_queue("q0")
                first = buffer.admit("q0", 100)
                buffer.admit("q0", 100)  # keeps counters positive
                buffer.release("q0", first)
                buffer.release("q0", first)

    def test_release_on_wrong_queue_caught(self):
        with pytest.raises(InvariantViolation, match="release-once"):
            with audited():
                buffer = self.make()
                buffer.register_queue("q0")
                buffer.register_queue("q1")
                admission = buffer.admit("q0", 100)
                buffer.admit("q1", 100)
                buffer.release("q1", admission)

    def test_occupancy_tampering_caught(self):
        with pytest.raises(InvariantViolation, match="shared-occupancy-sync"):
            with audited():
                buffer = self.make()
                buffer.register_queue("q0")
                buffer.admit("q0", 100)
                buffer._shared_occupancy += 7  # counter drift
                buffer.admit("q0", 100)

    def test_reset_counters_mid_run_stays_consistent(self):
        with audited() as auditor:
            buffer = self.make()
            buffer.register_queue("q0")
            held = buffer.admit("q0", 200)
            buffer.admit("q0", 5000)  # discarded (over pool)
            buffer.reset_counters()
            # Occupancy survives the counter reset; new traffic accounts
            # from zero.
            assert buffer.queue_occupancy("q0") == 200
            buffer.admit("q0", 300)
            assert buffer.total_admitted_bytes() == 300
            buffer.release("q0", held)
        assert auditor.violations == []

    def test_verify_reconciles_outstanding_admissions(self):
        with audited() as auditor:
            buffer = self.make()
            buffer.register_queue("q0")
            buffer.admit("q0", 100)
        # Exit verify passed: 100 bytes outstanding == 100 occupancy.
        buffer._shared_occupancy = 0  # lose the in-flight bytes
        with pytest.raises(InvariantViolation, match="shared-occupancy-sync"):
            auditor.verify()


class TestSwitchLaws:
    def test_clean_forwarding(self):
        with audited() as auditor:
            engine = Engine()
            switch = ToRSwitch(engine, buffer_config=tight_buffer())
            switch.connect_server("s0", lambda p: None)
            for _ in range(20):
                switch.forward(data_packet("s0"))
            engine.run()
            auditor.verify()
        assert auditor.violations == []

    def test_counter_tampering_caught(self):
        with audited():
            engine = Engine()
            switch = ToRSwitch(engine, buffer_config=tight_buffer())
            switch.connect_server("s0", lambda p: None)
            switch.forward(data_packet("s0"))
            switch.counters.forwarded_bytes += 1
            with pytest.raises(InvariantViolation, match="forward-accounting"):
                switch.forward(data_packet("s0"))


class TestMetricsIntegration:
    def test_violations_counted_immediately(self):
        metrics = Metrics()
        auditor = InvariantAuditor(metrics=metrics, raise_on_violation=False)
        with audited(auditor):
            buffer = SharedBuffer(tight_buffer())
            buffer.register_queue("q0")
            first = buffer.admit("q0", 100)
            buffer.admit("q0", 100)
            buffer.release("q0", first)
            buffer.release("q0", first)  # silent double release
        assert metrics.counters()["audit.violations"] >= 1
        assert len(auditor.violations) >= 1

    def test_event_and_check_totals_flushed_on_verify(self):
        metrics = Metrics()
        with audited(InvariantAuditor(metrics=metrics)):
            buffer = SharedBuffer(tight_buffer())
            buffer.register_queue("q0")
            buffer.release("q0", buffer.admit("q0", 100))
        counters = metrics.counters()
        assert counters["audit.events"] >= 2
        assert counters["audit.checks"] > counters["audit.events"]

    def test_structured_violation_fields(self):
        auditor = InvariantAuditor(raise_on_violation=False)
        with audited(auditor):
            buffer = SharedBuffer(tight_buffer())
            buffer.register_queue("q0")
            buffer._shared_occupancy = 13
            buffer.admit("q0", 100)
        violation = auditor.violations[0]
        assert violation.law == "buffer.shared-occupancy-sync"
        assert violation.component == "buffer"
        assert violation.observed != violation.expected
        assert "shared-occupancy-sync" in str(violation)


# -- the auditor catching each fixed bug, with the fix reverted ----------


class LegacyEcnSwitch(ToRSwitch):
    """Re-introduces the pre-fix ECN accounting: ``ecn_marked_bytes``
    incremented at mark time, before admission is known."""

    def _enqueue(self, server, packet):
        queue = self.queue_for(server)
        marked = False
        if (
            packet.ecn_capable
            and not packet.is_ack
            and queue.occupancy > self.buffer_config.ecn_threshold_bytes
        ):
            packet = packet.marked()
            marked = True
            self.counters.ecn_marked_bytes += packet.size  # the bug
        admitted = queue.enqueue(packet)
        if admitted:
            self.counters.forwarded_bytes += packet.size
        else:
            self.counters.discard_bytes += packet.size
            self.counters.discard_packets += 1
        self._audit.on_switch_enqueue(self, server, packet, admitted, marked)
        if not admitted and self.on_drop is not None:
            self.on_drop(packet, server)


class TestAuditorCatchesFixedBugs:
    def test_catches_legacy_ecn_marked_on_discard(self):
        """Satellite fix 2: a marked packet the buffer then rejects must
        not count toward ecn_marked_bytes.  With the legacy accounting
        re-introduced, the auditor flags the first marked-then-discarded
        packet."""
        config = tight_buffer(shared_bytes=3000, ecn_threshold_bytes=100)
        with audited():
            engine = Engine()
            switch = LegacyEcnSwitch(engine, buffer_config=config)
            # No drain: rate so slow the queue only fills.
            switch.connect_server("s0", lambda p: None, rate=1.0)
            with pytest.raises(InvariantViolation, match="ecn-accounting"):
                for _ in range(10):
                    switch.forward(data_packet("s0", size=1000))

    def test_fixed_switch_counts_marked_discards_correctly(self):
        """Same traffic through the fixed switch: zero violations, and
        marked bytes never exceed forwarded bytes."""
        config = tight_buffer(shared_bytes=3000, ecn_threshold_bytes=100)
        with audited() as auditor:
            engine = Engine()
            switch = ToRSwitch(engine, buffer_config=config)
            switch.connect_server("s0", lambda p: None, rate=1.0)
            for _ in range(10):
                switch.forward(data_packet("s0", size=1000))
        assert auditor.violations == []
        assert switch.counters.discard_packets > 0  # the scenario did discard
        assert switch.counters.ecn_marked_bytes <= switch.counters.forwarded_bytes

    def test_catches_legacy_engine_budget_off_by_one(self):
        """Satellite fix 1: draining exactly ``max_events`` events is not
        budget exhaustion.  The legacy loop raised anyway; the audited
        engine demonstrates the fixed semantics, and the legacy
        behaviour is what the regression in test_engine.py guards."""
        with audited() as auditor:
            engine = Engine()
            for index in range(5):
                engine.at(float(index), lambda: None)
            engine.run(max_events=5)  # exactly the heap size: must finish
        assert auditor.violations == []
        assert engine.events_run == 5

    def test_catches_legacy_sync_run_selection(self):
        """Satellite fix 3: the legacy ``min(candidates)`` selection
        returns the *periodic* run that started just inside the skew
        tolerance; the fixed selection returns the sync run.  Shown on
        the same store contents."""
        import numpy as np

        from tests.conftest import make_run
        from tests.core.test_syncsampler import make_host

        host = make_host("h0")
        sync_start = 1.0
        tolerance = 50e-3
        periodic_start = sync_start - 0.03  # inside the tolerance window
        sync_run_start = sync_start + 0.0002  # host clock slightly late
        host.store.store(make_run(np.ones(10), host="h0", start_time=periodic_start))
        host.store.store(make_run(np.full(10, 2.0), host="h0", start_time=sync_run_start))

        candidates = [
            start
            for start in host.store.start_times()
            if start >= sync_start - tolerance
        ]
        legacy_choice = min(candidates)
        fixed_choice = min(candidates, key=lambda s: (abs(s - sync_start), s))
        assert legacy_choice == periodic_start  # the bug: wrong run
        assert fixed_choice == sync_run_start


class TestDisabledOverhead:
    def test_disabled_components_share_the_noop_singleton(self):
        engine = Engine()
        buffer = SharedBuffer(tight_buffer())
        switch = ToRSwitch(engine, buffer_config=tight_buffer())
        assert engine._audit is NOOP_TAP
        assert buffer._audit is NOOP_TAP
        assert switch._audit is NOOP_TAP

    def test_auditor_keeps_no_state_for_noop_runs(self):
        auditor = InvariantAuditor()
        engine = Engine()  # no-op tap
        engine.at(1.0, lambda: None)
        engine.run()
        assert auditor.events == 0
        assert auditor.checks == 0


class TestDoubleReleaseUnderflowStillRaises:
    def test_buffer_guards_underflow_without_auditor(self):
        """The buffer's own (weaker) double-release guard still works
        when auditing is off: underflow raises SimulationError."""
        buffer = SharedBuffer(tight_buffer())
        buffer.register_queue("q0")
        admission = buffer.admit("q0", 100)
        buffer.release("q0", admission)
        with pytest.raises(SimulationError):
            buffer.release("q0", admission)
