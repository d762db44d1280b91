"""The one store key (``JobSpec.key``) and the one storage policy.

The key digests the *resolved* config, so every way of naming one
point is one record; every field that changes the answer changes the
key.  The store keeps a result iff it is deterministic.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest

import repro
from repro.service import (
    JobResult,
    JobService,
    JobSpec,
    JobState,
    ResultStore,
    RetryPolicy,
    WatchdogTimeout,
    job,
)
from repro.service.chaos import clean_source, loop_source
from repro.uarch import uconfig

CONFIGS = Path(__file__).resolve().parents[2] / "configs"

XT910_DOC = uconfig.config_to_doc(uconfig.resolve_core("xt910"))


def _spec(**kwargs) -> JobSpec:
    kwargs.setdefault("source", clean_source(0))
    return JobSpec(**kwargs)


def _spellings() -> dict[str, JobSpec]:
    """xt910, named five ways."""
    spellings = {
        "preset name": _spec(core="xt910"),
        "resolved document": _spec(core=None, uarch=XT910_DOC),
        "base + empty overlay": _spec(
            core=None, uarch=uconfig.merge_overlay(XT910_DOC, {})),
        "document wins over core": _spec(core="u74", uarch=XT910_DOC),
    }
    if uconfig.yaml is not None:
        spellings["committed file"] = _spec(
            core=None, uarch=uconfig.load_doc(str(CONFIGS / "xt910.yaml")))
    return spellings


def test_every_spelling_of_one_point_is_one_key():
    keys = {name: spec.key() for name, spec in _spellings().items()}
    assert len(set(keys.values())) == 1, keys


def test_partial_overlay_and_its_resolution_are_one_key():
    """Dataclass defaults fill what a partial document omits — a
    different point from xt910, but one point."""
    partial = {"name": "mine", "rob_entries": 192}
    resolved = uconfig.config_to_doc(uconfig.config_from_doc(partial))
    assert len(resolved) > len(partial)
    assert _spec(core=None, uarch=partial).key() == \
        _spec(core=None, uarch=resolved).key()
    assert _spec(core=None, uarch=partial).key() != _spec().key()


def test_second_spelling_is_a_cache_hit():
    service = JobService(isolation=False)
    first, *rest = _spellings().values()
    cold = service.submit(first)
    assert cold.state is JobState.COMPLETED and not cold.cache_hit
    for spec in rest:
        hit = service.submit(dataclasses.replace(spec, name="again"))
        assert hit.cache_hit and hit.name == "again"
        assert hit.metrics["cycles"] == cold.metrics["cycles"]
    assert service.counters()["cache_entries"] == 1


@pytest.mark.parametrize("change", [
    {"uarch": uconfig.merge_overlay(
        XT910_DOC, {"mem": {"dram": {"latency": 161}}})},
    {"mode": "fast"},
    {"max_insts": 4_999_999},
    {"max_insts": None},
    {"vet": False},
    {"compress": False},
    {"source": clean_source(1)},
    {"core": None, "uarch": None},          # functional: the fixed marker
], ids=lambda change: "+".join(change))
def test_every_answer_changing_field_changes_the_key(change):
    base = _spec(core=None, uarch=XT910_DOC)
    assert dataclasses.replace(base, **change).key() != base.key()


def test_fields_that_do_not_change_the_answer_do_not_change_the_key():
    base = _spec()
    same = dataclasses.replace(base, name="other", wall_timeout_s=1.0,
                               chaos={"crash_attempts": [1]})
    assert same.key() == base.key()


def test_store_version_is_in_the_key(monkeypatch):
    before = _spec().key()
    monkeypatch.setattr(job, "STORE_VERSION", job.STORE_VERSION + 1)
    assert _spec().key() != before


def test_source_digest_changes_with_one_byte_of_the_simulator(tmp_path):
    copies = {}
    for name in ("same", "edited"):
        copies[name] = tmp_path / name / "repro"
        shutil.copytree(Path(repro.__file__).parent, copies[name],
                        ignore=shutil.ignore_patterns("__pycache__"))
    core = copies["edited"] / "uarch" / "core.py"
    text = bytearray(core.read_bytes())
    text[-1] ^= 1
    core.write_bytes(bytes(text))
    assert repro.source_digest(str(copies["same"])) == repro.source_digest()
    assert repro.source_digest(str(copies["edited"])) != repro.source_digest()


def test_an_edited_simulator_misses_the_disk_store(monkeypatch, tmp_path):
    def submit():
        with JobService(isolation=False,
                        store=ResultStore(str(tmp_path))) as service:
            return service.submit(_spec())

    assert not submit().cache_hit
    assert submit().cache_hit
    monkeypatch.setattr(job, "source_digest", lambda: "edited")
    assert not submit().cache_hit


def test_unresolvable_core_is_rejected_not_raised():
    """The parent needs the resolved digest for the key; a core that
    does not resolve must still end REJECTED, never raise from run()."""
    service = JobService(isolation=False, retry=RetryPolicy(max_attempts=3),
                         breaker_threshold=4)
    for spec, names in (
            (_spec(core=None, uarch={"frontend": {"depht": 7}}),
             "frontend.depht"),
            (_spec(core="no-such-preset"), "no-such-preset"),
            (_spec(core="/no/such/file.json"), "/no/such/file.json")):
        result = service.submit(spec)
        assert result.state is JobState.REJECTED
        assert result.attempts == 1 and not result.error["retryable"]
        assert names in result.error["message"]
    assert service.counters()["cache_entries"] == 0


class TestStoragePolicy:
    def test_instruction_watchdog_timeout_is_stored(self):
        service = JobService(isolation=False)
        spec = _spec(source=loop_source(), max_insts=2_000)
        first = service.submit(spec)
        assert first.state is JobState.TIMEOUT and first.partial
        second = service.submit(spec)
        assert second.cache_hit and second.partial
        assert second.metrics == first.metrics
        # a raised budget is a different key
        assert not service.submit(
            dataclasses.replace(spec, max_insts=3_000)).cache_hit

    def test_budget_expiry_is_not_a_breaker_failure(self):
        service = JobService(isolation=False, breaker_threshold=2)
        for budget in (1_000, 1_100, 1_200, 1_300):
            result = service.submit(
                _spec(source=loop_source(), max_insts=budget))
            assert result.state is JobState.TIMEOUT
        assert service.counters()["breaker_trips"] == 0

    @pytest.mark.parametrize("result", [
        JobResult(name="wall", state=JobState.TIMEOUT,
                  error=WatchdogTimeout("deadline", retryable=True).to_dict()),
        JobResult(name="failed", state=JobState.FAILED),
        JobResult(name="rejected", state=JobState.REJECTED),
        JobResult(name="quarantined", state=JobState.QUARANTINED),
    ], ids=lambda result: result.name)
    def test_nondeterministic_results_are_never_stored(self, result,
                                                       tmp_path):
        store = ResultStore(str(tmp_path))
        assert not store.put("k", result)
        assert store.get("k") is None and not list(tmp_path.iterdir())
