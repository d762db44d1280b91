"""Retry policy, circuit breaker, and the result store's LRU front."""

import random

from repro.service.job import JobResult, JobState
from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.store import ResultStore


class TestRetryPolicy:
    def test_backoff_is_exponential_with_jitter_bounds(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                             backoff_cap_s=10.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in (1, 2, 3):
            nominal = 0.1 * 2 ** (attempt - 1)
            for _ in range(50):
                delay = policy.delay(attempt, rng)
                assert nominal * 0.5 <= delay <= nominal * 1.5

    def test_cap(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=1.5,
                             jitter=0.0)
        assert policy.delay(10, random.Random(0)) == 1.5

    def test_deterministic_given_seed(self):
        policy = RetryPolicy()
        a = [policy.delay(k, random.Random(42)) for k in (1, 2, 3)]
        b = [policy.delay(k, random.Random(42)) for k in (1, 2, 3)]
        assert a == b

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("prog")
        assert not breaker.is_open("prog")
        breaker.record_failure("prog")
        assert breaker.is_open("prog")
        assert breaker.trips == 1
        assert "prog" in breaker.open_keys

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("prog")
        breaker.record_success("prog")
        breaker.record_failure("prog")
        assert not breaker.is_open("prog")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("toxic")
        assert breaker.is_open("toxic")
        assert not breaker.is_open("healthy")

    def test_reset_closes(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("prog")
        breaker.reset("prog")
        assert not breaker.is_open("prog")


def _completed(name: str = "job") -> JobResult:
    return JobResult(name=name, state=JobState.COMPLETED,
                     metrics={"cycles": 100})


class TestResultCache:
    """The in-memory (``root=None``) ResultStore: what JobService uses
    by default.  The disk back is covered in test_store.py."""

    KEY = "prog-config-auto"

    def test_miss_then_hit(self):
        cache = ResultStore()
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, _completed())
        hit = cache.get(self.KEY)
        assert hit is not None and hit.cache_hit
        assert hit.metrics == {"cycles": 100}
        assert cache.counters() == {"hits": 1, "misses": 1, "entries": 1,
                                    "discards": 0}

    def test_only_completed_results_are_cached(self):
        cache = ResultStore()
        assert not cache.put(self.KEY,
                             JobResult(name="x", state=JobState.FAILED))
        assert cache.get(self.KEY) is None

    def test_returned_results_are_independent_copies(self):
        cache = ResultStore()
        cache.put(self.KEY, _completed())
        first = cache.get(self.KEY)
        first.metrics["cycles"] = -1
        first.state = JobState.FAILED
        second = cache.get(self.KEY)
        assert second.metrics == {"cycles": 100}
        assert second.state is JobState.COMPLETED

    def test_lru_eviction(self):
        cache = ResultStore(capacity=2)
        cache.put("a", _completed("a"))
        cache.put("b", _completed("b"))
        assert cache.get("a") is not None   # refresh "a"
        cache.put("c", _completed("c"))     # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
