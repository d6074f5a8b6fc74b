"""The runtime lockset sanitizer: tracked locks, guarded-attribute checks,
the construction exemption, and discovery over the installed package."""

import threading

import pytest

from repro.analysis.runtime import TrackedLock, TrackedRLock, get_sanitizer


@pytest.fixture
def sanitizer():
    """The process-wide sanitizer, activated for the test.

    Under ``pytest --repro-sanitize`` the session already owns the
    activation; only deactivate what this fixture itself activated, so the
    session-level instrumentation survives this module.
    """
    instance = get_sanitizer()
    owned = not instance.active
    if owned:
        instance.activate()
    try:
        yield instance
    finally:
        if owned:
            instance.deactivate()
            instance.reset()


class TestTrackedLocks:
    def test_lock_knows_its_owner(self):
        lock = TrackedLock()
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
            assert lock.locked()
        assert not lock.held_by_current_thread()

    def test_other_threads_holding_do_not_count(self):
        lock = TrackedLock()
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(timeout=5)
        try:
            assert lock.locked()
            assert not lock.held_by_current_thread()
        finally:
            release.set()
            thread.join(timeout=5)

    def test_rlock_is_reentrant(self):
        lock = TrackedRLock()
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.held_by_current_thread()

    def test_patched_factory_tracks_repro_callers_only(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        assert isinstance(gauge._lock, TrackedLock)
        # this test module is not part of the repro package: raw primitive
        assert not isinstance(threading.Lock(), TrackedLock)


class TestGuardedWrites:
    def test_seeded_unguarded_write_is_caught(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        with sanitizer.capture() as caught:
            gauge._value = 1  # seeded violation: no lock held
        assert len(caught) == 1
        violation = caught[0]
        assert violation.attribute == "_value"
        assert violation.lock == "_lock"
        assert "Gauge" in violation.cls
        assert "unguarded write" in violation.describe()

    def test_write_under_the_declared_lock_is_clean(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        with sanitizer.capture() as caught:
            with gauge._lock:
                gauge._value = 1
        assert caught == []

    def test_the_real_code_paths_are_clean(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        with sanitizer.capture() as caught:
            gauge.inc(3)
            gauge.set(1)
        assert caught == []

    def test_init_writes_are_exempt(self, sanitizer):
        from repro.obs.metrics import Gauge

        with sanitizer.capture() as caught:
            Gauge("probe")  # __init__ writes _value without the lock
        assert caught == []

    def test_unguarded_write_from_worker_thread_is_attributed(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        with sanitizer.capture() as caught:
            thread = threading.Thread(
                target=lambda: setattr(gauge, "_value", 2), name="rogue"
            )
            thread.start()
            thread.join(timeout=5)
        assert len(caught) == 1
        assert caught[0].thread == "rogue"


class TestLifecycle:
    def test_discovery_instruments_the_guarded_classes(self, sanitizer):
        assert "repro.obs.metrics.Gauge" in sanitizer.guarded
        assert "repro.service.cache.IndexCache" in sanitizer.guarded
        assert len(sanitizer.guarded) >= 5

    def test_deactivate_restores_threading_and_setattr(self):
        instance = get_sanitizer()
        was_active = instance.active
        if not was_active:
            instance.activate()
        instance.deactivate()
        try:
            assert not isinstance(threading.Lock(), TrackedLock)

            from repro.obs.metrics import Gauge

            gauge = Gauge("probe")
            before = len(instance.violations)
            gauge._value = 1  # no longer checked
            assert len(instance.violations) == before
        finally:
            if was_active:
                instance.activate()  # hand the session its sanitizer back

    def test_violations_never_raise(self, sanitizer):
        from repro.obs.metrics import Gauge

        gauge = Gauge("probe")
        with sanitizer.capture() as caught:
            gauge._value = 3  # records, does not raise
        assert gauge._value == 3
        assert len(caught) == 1
