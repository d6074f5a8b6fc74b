"""The fixed-bucket histogram, the one metric instrument left in ``repro.obs``."""

import threading

import pytest

from repro.obs.metrics import Histogram


class TestInstruments:
    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.bucket_counts() == (1, 2, 3, 4)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.555)
        assert histogram.samples() == {"h_count": 4.0, "h_sum": pytest.approx(5.555)}

    def test_value_on_a_bound_counts_in_that_bounds_bucket(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.1)
        histogram.observe(1.0)
        assert histogram.bucket_counts() == (1, 2, 2)

    def test_bounds_are_sorted_at_construction(self):
        histogram = Histogram("h", buckets=(1.0, 0.01, 0.1))
        assert histogram.bounds == (0.01, 0.1, 1.0)
        histogram.observe(0.05)
        assert histogram.bucket_counts() == (0, 1, 1, 1)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())

    def test_concurrent_increments_do_not_lose_updates(self):
        histogram = Histogram("h", buckets=(1.0,))

        def observe() -> None:
            for _ in range(1000):
                histogram.observe(0.5)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 4000
        assert histogram.bucket_counts() == (4000, 4000)
