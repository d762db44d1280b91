"""The declarative config layer (``repro.uarch.uconfig``).

Covers the schema negatives the validator exists for (unknown key,
wrong type, out-of-range width — each reported with its dotted path),
overlay precedence and ``replace: true`` semantics, a hypothesis
round-trip property (document -> CoreConfig -> document is a fixed
point under random knob edits), preset<->committed-config equivalence,
golden-stats bit-identity for a core built from the committed
``configs/xt910.yaml`` instead of the Python constructor, and the
``vlen256`` overlay reaching the emulator.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import run_on_core
from repro.sim import Emulator
from repro.uarch import uconfig
from repro.uarch.config import CoreConfig
from repro.uarch.presets import PRESETS, get_preset
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIGS = REPO_ROOT / "configs"
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text())


# -- schema ------------------------------------------------------------------


def test_schema_covers_every_dataclass_leaf():
    knobs = uconfig.schema()
    assert knobs["issue_width"] == "int"
    assert knobs["frontend.btb.l1_entries"] == "int"
    assert knobs["mem.l1_prefetch.distance"] == "int"
    assert knobs["vlen"] == "int"
    assert knobs["mem.l1_prefetch.mode"] == "str"
    # Derived from the dataclass tree: top-level field count matches.
    top = {path.split(".")[0] for path in knobs}
    assert top == {f.name for f in dataclasses.fields(CoreConfig)}


def test_validator_rule_tables_name_schema_leaves():
    """A knob deleted from the model cannot linger in a rule table."""
    leaves = {path.rsplit(".", 1)[-1] for path in uconfig.schema()}
    ruled = (uconfig._WIDTH_FIELDS | uconfig._POSITIVE_FIELDS
             | set(uconfig._CHOICE_FIELDS) | uconfig._POW2_FIELDS)
    assert ruled <= leaves, sorted(ruled - leaves)


def test_unknown_key_names_the_path_and_known_keys():
    with pytest.raises(uconfig.UconfigError) as excinfo:
        uconfig.validate({"frontend": {"depht": 7}})
    message = str(excinfo.value)
    assert "frontend.depht" in message
    assert "unknown key" in message
    assert "depth" in message          # the known-keys hint


def test_wrong_type_is_rejected():
    with pytest.raises(uconfig.UconfigError) as excinfo:
        uconfig.validate({"rob_entries": "lots"})
    assert "expected int" in str(excinfo.value)
    with pytest.raises(uconfig.UconfigError):
        uconfig.validate({"out_of_order": 1})        # bool, not int
    with pytest.raises(uconfig.UconfigError):
        uconfig.validate({"frontend": 7})            # mapping expected


def test_out_of_range_width_is_rejected():
    for bad in (0, -3, 65):
        with pytest.raises(uconfig.UconfigError) as excinfo:
            uconfig.validate({"decode_width": bad})
        assert "out of range 1..64" in str(excinfo.value)


def test_domain_checks_positive_choice_and_pow2():
    with pytest.raises(uconfig.UconfigError):
        uconfig.validate({"rob_entries": 0})
    with pytest.raises(uconfig.UconfigError):
        uconfig.validate({"mem": {"l1_prefetch": {"mode": "psychic"}}})
    with pytest.raises(uconfig.UconfigError):
        uconfig.validate({"vlen": 96})               # not a power of two
    uconfig.validate({"vlen": 256})                  # fine


def test_every_problem_reported_in_one_pass():
    with pytest.raises(uconfig.UconfigError) as excinfo:
        uconfig.validate({"decode_width": 0, "nonsense": 1,
                          "frontend": {"depth": "deep"}})
    assert len(excinfo.value.problems) == 3


def test_replace_marker_invalid_in_resolved_document():
    with pytest.raises(uconfig.UconfigError) as excinfo:
        uconfig.validate({"frontend": {"replace": True, "depth": 7}})
    assert "overlay-merge marker" in str(excinfo.value)


# -- overlay merge -----------------------------------------------------------


def test_overlay_scalar_overwrites_and_mappings_merge():
    base = uconfig.config_to_doc(get_preset("xt910"))
    merged = uconfig.merge_overlay(
        base, {"rob_entries": 256, "frontend": {"depth": 9}})
    assert merged["rob_entries"] == 256
    assert merged["frontend"]["depth"] == 9
    # untouched siblings survive the merge
    assert merged["frontend"]["btb"] == base["frontend"]["btb"]
    # neither input was mutated
    assert base["rob_entries"] == get_preset("xt910").rob_entries


def test_overlay_precedence_is_last_wins():
    config = uconfig.resolve_core(
        {"name": "x", "rob_entries": 100},
        extends=())
    assert config.rob_entries == 100
    base = {"name": "x", "rob_entries": 100}
    first = {"rob_entries": 120, "iq_entries": 24}
    second = {"rob_entries": 140}
    doc = uconfig.merge_overlay(uconfig.merge_overlay(base, first),
                                second)
    merged = uconfig.config_from_doc(doc)
    assert merged.rob_entries == 140     # second overlay wins
    assert merged.iq_entries == 24       # first overlay survives


def test_replace_true_swaps_the_whole_object():
    base = uconfig.config_to_doc(get_preset("xt910"))
    merged = uconfig.merge_overlay(
        base,
        {"mem": {"l1_prefetch": {"replace": True, "enabled": False}}})
    # replace semantics: every other prefetch knob resets to default
    config = uconfig.config_from_doc(merged)
    assert config.mem.l1_prefetch.enabled is False
    defaults = type(config.mem.l1_prefetch)(enabled=False)
    assert config.mem.l1_prefetch == defaults
    # merge semantics on the same doc would have kept the base knobs
    kept = uconfig.config_from_doc(uconfig.merge_overlay(
        base, {"mem": {"l1_prefetch": {"enabled": False}}}))
    assert kept.mem.l1_prefetch.streams == \
        get_preset("xt910").mem.l1_prefetch.streams


def test_apply_overrides_dotted_paths():
    base = uconfig.config_to_doc(get_preset("xt910"))
    doc = uconfig.apply_overrides(
        base, {"frontend.depth": 9, "mem.dram.latency": 200})
    config = uconfig.config_from_doc(doc)
    assert config.frontend.depth == 9
    assert config.mem.dram.latency == 200


# -- round trip --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_round_trip_and_digest_stability(name):
    config = get_preset(name)
    doc = uconfig.config_to_doc(config)
    rebuilt = uconfig.config_from_doc(doc)
    assert rebuilt == config
    assert uconfig.config_digest(doc) == uconfig.config_digest(rebuilt)


@settings(max_examples=30, deadline=None)
@given(
    rob=st.integers(min_value=1, max_value=512),
    width=st.integers(min_value=1, max_value=64),
    depth=st.integers(min_value=1, max_value=20),
    latency=st.integers(min_value=1, max_value=1000),
    vec=st.booleans(),
)
def test_roundtrip_property(rob, width, depth, latency, vec):
    """doc -> CoreConfig -> doc is a fixed point for any legal edit."""
    base = uconfig.config_to_doc(get_preset("xt910"))
    doc = uconfig.apply_overrides(base, {
        "rob_entries": rob,
        "issue_width": width,
        "frontend.depth": depth,
        "mem.dram.latency": latency,
        "vector_enabled": vec,
    })
    config = uconfig.config_from_doc(doc)
    assert config.rob_entries == rob
    assert config.issue_width == width
    dumped = uconfig.config_to_doc(config)
    assert uconfig.config_from_doc(dumped) == config
    assert uconfig.config_to_doc(uconfig.config_from_doc(dumped)) \
        == dumped
    # the digest is over the resolved document: stable across trips
    assert uconfig.config_digest(doc) == uconfig.config_digest(dumped)


def test_partial_docs_digest_like_their_resolution():
    full = uconfig.config_to_doc(CoreConfig(name="x", rob_entries=100))
    partial = {"name": "x", "rob_entries": 100}
    assert uconfig.config_digest(partial) == uconfig.config_digest(full)


# -- file I/O ----------------------------------------------------------------


def test_json_dump_load_round_trip(tmp_path):
    config = get_preset("u74")
    path = str(tmp_path / "u74.json")
    uconfig.dump_config(config, path, description="round trip")
    assert uconfig.resolve_core(path) == config
    doc = uconfig.load_doc(path)
    assert doc["description"] == "round trip"


@pytest.mark.skipif(uconfig.yaml is None, reason="PyYAML not installed")
def test_yaml_dump_load_round_trip(tmp_path):
    config = get_preset("xt910")
    path = str(tmp_path / "xt910.yaml")
    uconfig.dump_config(config, path)
    assert uconfig.resolve_core(path) == config


def test_extends_files_merge_in_order(tmp_path):
    o1 = str(tmp_path / "a.json")
    o2 = str(tmp_path / "b.json")
    Path(o1).write_text(json.dumps({"rob_entries": 100,
                                    "iq_entries": 24}))
    Path(o2).write_text(json.dumps({"rob_entries": 120}))
    config = uconfig.resolve_core("xt910", extends=(o1, o2))
    assert config.rob_entries == 120
    assert config.iq_entries == 24


def test_resolve_core_unknown_name_lists_presets():
    with pytest.raises(uconfig.UconfigError) as excinfo:
        uconfig.resolve_core("nosuchcore")
    message = str(excinfo.value)
    assert "xt910" in message and "config document path" in message


# -- committed configs -------------------------------------------------------


def test_committed_configs_match_presets():
    problems = uconfig.check_committed_configs(str(CONFIGS))
    assert problems == []


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_preset_has_committed_equal_config(name):
    path = CONFIGS / f"{name}.yaml"
    assert path.exists(), f"configs/{name}.yaml is not committed"
    if uconfig.yaml is None:
        pytest.skip("PyYAML not installed")
    assert uconfig.resolve_core(str(path)) == get_preset(name)


@pytest.mark.skipif(uconfig.yaml is None, reason="PyYAML not installed")
def test_golden_stats_bit_identical_from_committed_config():
    """A core built from configs/xt910.yaml produces the exact
    committed golden stats — file-based and constructor-based configs
    are interchangeable down to the last counter."""
    config = uconfig.resolve_core(str(CONFIGS / "xt910.yaml"))
    for name in ("coremark-list", "blockchain-base"):
        result = run_on_core(get_workload(name).program(), config)
        got = result.stats.as_comparable()
        want = {key: value for key, value in GOLDEN[name].items()
                if key in got}
        assert got == want


@pytest.mark.skipif(uconfig.yaml is None, reason="PyYAML not installed")
def test_committed_overlays_merge_onto_xt910():
    overlays = sorted((CONFIGS / "overlays").glob("*.yaml"))
    assert overlays, "no committed overlay examples"
    for path in overlays:
        config = uconfig.resolve_core("xt910", extends=(str(path),))
        assert isinstance(config, CoreConfig)


@pytest.mark.skipif(uconfig.yaml is None, reason="PyYAML not installed")
def test_vlen256_overlay_widens_what_the_emulator_executes():
    """``vlen`` reaches the emulator: a strip-mined kernel takes longer
    strips, retires fewer instructions and still verifies; scalar
    programs time exactly as on the base core."""
    base = get_preset("xt910")
    wide = uconfig.resolve_core(
        "xt910", [str(CONFIGS / "overlays" / "vlen256.yaml")])
    workload = get_workload("vec-axpy-f32")
    program = workload.program()
    vls = {}
    for config in (base, wide):
        emulator = Emulator(program, vlen=config.vlen)
        vls[config.vlen] = {record.vl for batch in emulator.trace(None)
                            for record in batch if record.vl}
        assert emulator.state.vlen == config.vlen
        assert emulator.exit_code == 0
        assert emulator.state.memory.load_int(
            program.symbol(workload.result_symbol), 8) == workload.reference()
    assert max(vls[256]) == 2 * max(vls[128])
    narrow, wider = (run_on_core(program, config, tier=3).stats
                     for config in (base, wide))
    assert wider.instructions == 1517 < narrow.instructions
    assert wider.cycles < narrow.cycles
    for name in ("coremark-list", "nbench-fourier", "stream-triad"):
        scalar = get_workload(name).program()
        assert run_on_core(scalar, base, tier=3).stats.as_comparable() \
            == run_on_core(scalar, wide, tier=3).stats.as_comparable()
