"""Inline uarch documents on the job path.

A JobSpec may carry a config *document* instead of a preset name: it is
validated at admission (invalid documents are REJECTED with the dotted
problem paths, never retried), resolved once in the worker, and its
resolved digest is folded into ``JobSpec.key`` so differently-
configured runs never share a store entry.
"""

from repro.service import JobService, JobSpec, JobState, RetryPolicy
from repro.service.chaos import clean_source

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.05, jitter=0.2)


def _service(**kwargs) -> JobService:
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("isolation", False)
    return JobService(**kwargs)


class TestInlineUarch:
    def test_valid_document_runs_timed(self):
        result = _service().submit(JobSpec(
            source=clean_source(0), core=None,
            uarch={"name": "inline", "rob_entries": 96}, name="doc"))
        assert result.state is JobState.COMPLETED
        assert result.metrics["cycles"] > 0

    def test_document_equivalent_to_preset(self):
        from repro.uarch import uconfig
        from repro.uarch.presets import get_preset

        service = _service()
        by_name = service.submit(JobSpec(
            source=clean_source(1), core="xt910", name="by-name"))
        doc = uconfig.config_to_doc(get_preset("xt910"))
        by_doc = service.submit(JobSpec(
            source=clean_source(1), core=None, uarch=doc, name="by-doc"))
        assert by_name.state is by_doc.state is JobState.COMPLETED
        assert by_doc.metrics["cycles"] == by_name.metrics["cycles"]

    def test_invalid_document_rejected_at_admission(self):
        result = _service().submit(JobSpec(
            source=clean_source(2), core=None,
            uarch={"rob_entries": "lots"}, name="bad-doc"))
        assert result.state is JobState.REJECTED
        assert "rob_entries" in result.error["message"]
        assert result.attempts == 1          # deterministic: no retries

    def test_unknown_key_rejected_with_path(self):
        result = _service().submit(JobSpec(
            source=clean_source(3), core=None,
            uarch={"frontend": {"depht": 7}}, name="typo"))
        assert result.state is JobState.REJECTED
        assert "frontend.depht" in result.error["message"]

    def test_uarch_feeds_the_cache_key(self):
        spec_a = JobSpec(source=clean_source(4), core=None,
                         uarch={"rob_entries": 96})
        spec_b = JobSpec(source=clean_source(4), core=None,
                         uarch={"rob_entries": 128})
        spec_preset = JobSpec(source=clean_source(4), core="xt910")
        keys = {spec_a.key(), spec_b.key(), spec_preset.key()}
        assert len(keys) == 3
        # same document, same key: resubmission is a cache hit
        service = _service()
        first = service.submit(spec_a)
        second = service.submit(JobSpec(source=clean_source(4), core=None,
                                        uarch={"rob_entries": 96}))
        assert first.state is second.state is JobState.COMPLETED
        assert second.cache_hit
        assert second.metrics["cycles"] == first.metrics["cycles"]

    def test_different_documents_do_not_share_results(self):
        service = _service()
        fast = service.submit(JobSpec(
            source=clean_source(5), core=None,
            uarch={"name": "fast-mem",
                   "mem": {"dram": {"latency": 10}}}))
        slow = service.submit(JobSpec(
            source=clean_source(5), core=None,
            uarch={"name": "slow-mem",
                   "mem": {"dram": {"latency": 400}}}))
        assert not slow.cache_hit
        assert slow.metrics["cycles"] > fast.metrics["cycles"]
