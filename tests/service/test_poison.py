"""Poison-job suite: every hostile guest lands in its designated
terminal state with a JSON-serializable, reconstructible cause chain.

The poison programs mirror the chaos harness's generators — an
infinite loop, register-indirect wild jumps, a jump into data bytes
(decode bomb), a stack-smashing guest, a statically-detectable wild
store, an oversized source — plus raw unassemblable text.  Inline
execution (no process isolation) keeps this suite fast; none of these
programs can harm the host process, which is exactly the property
being tested.
"""

import json

import pytest

from repro.service import JobService, JobSpec, JobState, error_from_dict
from repro.service.chaos import (
    decode_bomb_source,
    loop_source,
    oversized_source,
    stack_smash_source,
    wild_jump_source,
    wild_store_source,
)


@pytest.fixture()
def service() -> JobService:
    return JobService(isolation=False)


def _assert_definitive(result, state: JobState, kind: str) -> None:
    """The poison contract: designated state + serializable error."""
    assert result.state is state
    assert result.terminal
    assert result.error is not None
    assert result.error["kind"] == kind
    payload = json.dumps(result.to_dict())
    revived = json.loads(payload)
    assert revived["error"]["kind"] == kind
    # The cause chain must reconstruct into taxonomy objects.
    error = error_from_dict(result.error)
    assert error.kind == kind
    assert error.render()


class TestPoisonJobs:
    def test_infinite_loop_functional(self, service):
        result = service.submit(JobSpec(
            source=loop_source(), core=None, max_insts=10_000))
        _assert_definitive(result, JobState.TIMEOUT, "watchdog-timeout")
        assert result.partial
        assert result.metrics["instret"] == 10_000
        assert result.error["detail"]["watchdog"] == "instructions"
        assert not result.error["retryable"]

    def test_infinite_loop_timed_returns_partial_stats(self, service):
        result = service.submit(JobSpec(
            source=loop_source(1), core="xt910", max_insts=10_000))
        _assert_definitive(result, JobState.TIMEOUT, "watchdog-timeout")
        assert result.partial
        assert result.metrics["cycles"] > 0
        assert result.error["detail"]["instret"] == 10_000

    def test_wild_jump(self, service):
        result = service.submit(JobSpec(
            source=wild_jump_source(), core=None))
        _assert_definitive(result, JobState.FAILED, "guest-fault")
        assert "runtime fault" in result.error["message"]

    def test_decode_bomb(self, service):
        result = service.submit(JobSpec(
            source=decode_bomb_source(), core=None))
        _assert_definitive(result, JobState.FAILED, "guest-fault")

    def test_stack_smashing_guest(self, service):
        result = service.submit(JobSpec(
            source=stack_smash_source(), core=None, vet=False))
        _assert_definitive(result, JobState.FAILED, "guest-fault")

    def test_wild_store_is_rejected_at_admission(self, service):
        result = service.submit(JobSpec(
            source=wild_store_source(), core=None, vet=True))
        _assert_definitive(result, JobState.REJECTED, "guest-fault")
        assert result.error["detail"]["stage"] == "admission"
        assert any("mem-wild" in key
                   for key in result.error["detail"]["findings"])

    def test_wild_store_runs_without_vetting(self, service):
        # Contrast case: the same program is admissible (and harmless
        # on the permissive flat memory) when vetting is off.
        result = service.submit(JobSpec(
            source=wild_store_source(), core=None, vet=False))
        assert result.state is JobState.COMPLETED

    def test_oversized_program(self, service):
        result = service.submit(JobSpec(
            source=oversized_source(), core=None))
        _assert_definitive(result, JobState.REJECTED, "resource-exhausted")
        assert result.error["detail"]["stage"] == "admission"

    def test_unassemblable_text_has_cause_chain(self, service):
        result = service.submit(JobSpec(
            source="definitely not assembly\n", core=None))
        _assert_definitive(result, JobState.REJECTED, "guest-fault")
        assert result.error["cause"]["type"]   # the assembler's error
        revived = error_from_dict(result.error)
        assert revived.__cause__ is not None

    def test_poison_batch_all_terminal(self, service):
        specs = [
            JobSpec(source=loop_source(2), core=None, max_insts=5_000),
            JobSpec(source=wild_jump_source(2), core=None),
            JobSpec(source=decode_bomb_source(2), core=None),
            JobSpec(source=stack_smash_source(2), core=None, vet=False),
            JobSpec(source=wild_store_source(2), core=None),
            JobSpec(source=oversized_source(2), core=None),
        ]
        results = service.run(specs)
        assert len(results) == len(specs)
        assert all(r.terminal for r in results)
        assert all(r.error is not None for r in results)
