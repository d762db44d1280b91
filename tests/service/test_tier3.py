"""Tier-3 through the job service: ladder rungs and cache-key tiers.

The degradation ladder for ``mode="auto"`` now enters at the
specializing translator (tier 3) and rides down tier 2 (fast) to
tier 1 (precise); pinned modes never downgrade.  The store key carries
the mode, so tier-3 results can never be served for a tier-2 request
(or vice versa) even though both complete successfully on the same
program + config.  ``metrics["tier"]`` is the tier that ran, with
``metrics["tier_reason"]`` when the emulator could not run the rung's
tier exactly — not a ladder downgrade.
"""

from repro.service import JobService, JobSpec, JobState, RetryPolicy
from repro.service.chaos import clean_source

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.05, jitter=0.2)


def _service(**kwargs) -> JobService:
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("isolation", False)
    return JobService(**kwargs)


class TestCacheKeyTier:
    def test_key_carries_the_execution_tier(self):
        source = clean_source(0)
        keys = {JobSpec(source=source, mode=mode).key()
                for mode in ("auto", "precise", "fast", "tier3")}
        assert len(keys) == 4

    def test_tiers_do_not_collide_in_the_result_cache(self):
        service = _service()
        source = clean_source(2)
        fast = service.submit(JobSpec(source=source, core=None,
                                      mode="fast", name="f"))
        assert fast.state is JobState.COMPLETED and not fast.cache_hit
        tier3 = service.submit(JobSpec(source=source, core=None,
                                       mode="tier3", name="t"))
        assert tier3.state is JobState.COMPLETED
        assert not tier3.cache_hit          # tier-2 entry must not serve
        again = service.submit(JobSpec(source=source, core=None,
                                       mode="tier3", name="t2"))
        assert again.cache_hit              # same tier does


class TestLadder:
    def test_auto_completes_on_tier3(self):
        result = _service().submit(
            JobSpec(source=clean_source(3), core="xt910", name="auto"))
        assert result.state is JobState.COMPLETED
        assert not result.downgraded
        assert result.metrics["tier"] == 3
        assert "tier_reason" not in result.metrics

    def test_tier3_fault_lands_on_fast(self):
        result = _service().submit(
            JobSpec(source=clean_source(4), core="xt910",
                    chaos={"tier3_fault": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert result.metrics["tier"] == 2
        assert "tier3" in result.downgrade_reason
        assert "codegen fault" in result.downgrade_reason

    def test_fast_fault_rides_down_to_precise(self):
        # The block-cache machinery underlies tiers 3 and 2: a fast
        # fault burns both rungs and the reason chain records each.
        result = _service().submit(
            JobSpec(source=clean_source(5), core="xt910",
                    chaos={"fast_fault": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert result.metrics["tier"] == 1
        assert "tier3" in result.downgrade_reason
        assert "tier2" in result.downgrade_reason

    def test_pinned_tier3_mode_does_not_fall_back(self):
        result = _service().submit(
            JobSpec(source=clean_source(6), core="xt910", mode="tier3",
                    chaos={"tier3_fault": True}))
        assert result.state is JobState.FAILED
        assert not result.downgraded

    def test_functional_ladder_matches_timed(self):
        result = _service().submit(
            JobSpec(source=clean_source(7), core=None,
                    chaos={"tier3_fault": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert result.metrics["tier"] == 2

    def test_divergence_lands_on_precise(self):
        result = _service().submit(
            JobSpec(source=clean_source(8), core="xt910",
                    chaos={"divergence": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert result.metrics["tier"] == 1
        assert "divergence" in result.downgrade_reason


class TestTierReport:
    def test_vetted_functional_job_reports_the_tier_that_ran(self):
        # The admission sanitizer rides along on the block-cache path,
        # whose hooks compiled blocks skip: a default (auto, vetted)
        # functional job asks for tier 3, runs on tier 2, and says why.
        result = _service().submit(
            JobSpec(source=clean_source(9), core=None, name="vetted"))
        assert result.state is JobState.COMPLETED
        assert not result.downgraded        # the ladder did not move
        assert result.metrics["tier"] == 2
        assert result.metrics["tier_reason"] == "sanitizer"
        assert "codegen_blocks_compiled" not in result.metrics

    def test_unvetted_functional_job_runs_on_tier3(self):
        result = _service().submit(
            JobSpec(source=clean_source(10), core=None, vet=False,
                    name="unvetted"))
        assert result.state is JobState.COMPLETED
        assert result.metrics["tier"] == 3
        assert "tier_reason" not in result.metrics
        assert result.metrics["codegen_executions"] > 0
