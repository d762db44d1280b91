"""Declarative microarchitecture configs (YAML/JSON) for CoreConfig.

Every knob the paper names — issue/decode/retire width, ROB/IQ sizes,
BTB and loop-buffer geometry, L1/L2 sizes, prefetch streams, DRAM
latency, vector slices and VLEN — is expressible as a validated config
*document*: a nested mapping that mirrors the
:class:`~repro.uarch.config.CoreConfig` dataclass tree.  The schema is
derived from the dataclasses themselves (``schema()``), so a new knob
added to the model is automatically a legal document key and a typo is
automatically an "unknown key" error — the two can never drift.

Documents compose the TBM way (AmbiML/trace-based-model): a *base*
document (``--uarch base.yaml``) plus any number of *overlay*
documents (``--extend overlay.yaml``).  Overlays are partial: scalars
overwrite, nested mappings merge key-by-key, and a mapping carrying
``replace: true`` replaces the whole object instead of merging into it.

The bundled Python presets (:mod:`repro.uarch.presets`) remain the
ground truth; the committed files under ``configs/`` are their dumped
form, and :func:`resolve_core` of each is asserted *equal* to the
constructor output (dataclass equality, hence golden-stats
bit-identity) by tests and the ``config-validate`` CI job.

``config_digest`` canonicalizes a document to sorted-key JSON and
hashes it — the config half of the (program, config, tier) key used by
the ``repro explore`` result store and the service result cache.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import typing
from typing import Any, Iterator, Mapping

from .config import CoreConfig
from .presets import PRESETS, get_preset

try:
    import yaml
except ImportError:  # minimal environments: JSON documents still work
    yaml = None  # type: ignore[assignment]

#: Bump when the document schema changes incompatibly; part of every
#: config digest so stale cached sweep results can never be replayed
#: against a reinterpreted document.  Version 2 dropped the four knobs
#: the simulator never read.
SCHEMA_VERSION = 2

#: Top-level keys that are documentation, not knobs.
_META_KEYS = frozenset({"description"})

#: The overlay-merge marker (TBM semantics): a mapping containing
#: ``replace: true`` replaces the base object instead of merging.
_REPLACE_KEY = "replace"

#: Width-like knobs: must be 1..64 (an "out-of-range width" is the
#: canonical drive-by YAML edit the validator exists to catch).
_WIDTH_FIELDS = frozenset({
    "decode_width", "rename_width", "issue_width", "retire_width",
    "fetch_insts", "alu_count", "bju_count", "fpu_count", "vec_slices",
})

#: Knobs that must be strictly positive (zero would be a degenerate,
#: not-a-core configuration the timing model does not defend against).
_POSITIVE_FIELDS = frozenset({
    "rob_entries", "iq_entries",
    "fetch_bytes", "ibuf_entries", "depth", "line_size",
    "l1i_size", "l1i_assoc", "l1d_size", "l1d_assoc",
    "l2_size", "l2_assoc", "sq_entries",
    "utlb_entries", "jtlb_entries", "jtlb_ways", "asid_bits",
    "bytes_per_cycle", "streams", "max_depth", "distance",
    "mul_latency", "div_latency_min", "div_latency_max",
    "fp_latency", "fmul_latency", "fdiv_latency",
    "valu_latency", "vmul_latency", "vfp_latency", "vfmul_latency",
    "vdiv_latency", "vperm_latency", "vreduce_latency",
    "mshrs", "capture_threshold",
})

#: String knobs with a fixed vocabulary.
_CHOICE_FIELDS: dict[str, frozenset[str]] = {
    "mode": frozenset({"global", "multi"}),
}

#: Power-of-two knobs (the RVV spec requires it for VLEN).
_POW2_FIELDS = frozenset({"vlen"})


class UconfigError(ValueError):
    """A config document failed validation.

    ``problems`` lists every independent issue (dotted path + message),
    so a drive-by edit that breaks three knobs is reported as three
    problems in one round trip, not one per rerun.
    """

    def __init__(self, problems: list[str], source: str | None = None):
        self.problems = list(problems)
        self.source = source
        where = f" in {source}" if source else ""
        lines = [f"{len(self.problems)} config problem(s){where}:"]
        lines += [f"  - {problem}" for problem in self.problems]
        super().__init__("\n".join(lines))


# -- schema ------------------------------------------------------------------


@functools.cache
def _type_hints(cls: type) -> dict[str, Any]:
    """Resolved field types (``from __future__ import annotations``
    stores them as strings).

    Memoised per class: ``get_type_hints`` re-compiles every annotation
    string, and one ``resolve_core`` walks the config tree ~24 times.
    Callers only read the mapping.
    """
    return typing.get_type_hints(cls)


def _field_types(cls: type) -> dict[str, Any]:
    hints = _type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _walk_schema(cls: type, prefix: str) -> Iterator[tuple[str, str]]:
    for name, ftype in _field_types(cls).items():
        path = f"{prefix}{name}"
        if dataclasses.is_dataclass(ftype):
            yield from _walk_schema(ftype, f"{path}.")
        else:
            yield path, ftype.__name__


def schema() -> dict[str, str]:
    """Every settable knob as ``dotted.path -> type name``.

    Derived from the :class:`CoreConfig` dataclass tree, so this is by
    construction the complete, current knob surface.
    """
    return dict(_walk_schema(CoreConfig, ""))


# -- validation --------------------------------------------------------------


def _check_leaf(path: str, name: str, ftype: Any, value: Any,
                problems: list[str]) -> None:
    if ftype is bool:
        if not isinstance(value, bool):
            problems.append(f"{path}: expected bool, got "
                            f"{type(value).__name__} {value!r}")
        return
    if ftype is int:
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{path}: expected int, got "
                            f"{type(value).__name__} {value!r}")
            return
        if name in _WIDTH_FIELDS and not 1 <= value <= 64:
            problems.append(f"{path}: width {value} out of range 1..64")
        elif name in _POSITIVE_FIELDS and value < 1:
            problems.append(f"{path}: must be >= 1, got {value}")
        elif value < 0:
            problems.append(f"{path}: must be >= 0, got {value}")
        if name in _POW2_FIELDS and (value < 64 or value & (value - 1)):
            problems.append(f"{path}: must be a power of two >= 64, "
                            f"got {value}")
        return
    if ftype is str:
        if not isinstance(value, str):
            problems.append(f"{path}: expected str, got "
                            f"{type(value).__name__} {value!r}")
            return
        choices = _CHOICE_FIELDS.get(name)
        if choices is not None and value not in choices:
            problems.append(f"{path}: {value!r} not one of "
                            f"{sorted(choices)}")
        elif name == "name" and (not value or any(c.isspace()
                                                  for c in value)):
            problems.append(f"{path}: core name must be a non-empty "
                            f"token without whitespace, got {value!r}")
        return
    problems.append(f"{path}: unsupported schema type {ftype!r}")


def _validate_node(cls: type, doc: Mapping[str, Any], prefix: str,
                   problems: list[str]) -> None:
    types = _field_types(cls)
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if prefix == "" and key in _META_KEYS:
            if not isinstance(value, str):
                problems.append(f"{path}: expected str, got "
                                f"{type(value).__name__}")
            continue
        if key == _REPLACE_KEY:
            problems.append(
                f"{path}: 'replace' is an overlay-merge marker; it is "
                f"not valid in a resolved document")
            continue
        ftype = types.get(key)
        if ftype is None:
            known = ", ".join(sorted(types))
            problems.append(f"{path}: unknown key (known: {known})")
            continue
        if dataclasses.is_dataclass(ftype):
            if not isinstance(value, Mapping):
                problems.append(f"{path}: expected a mapping of "
                                f"{ftype.__name__} knobs, got "
                                f"{type(value).__name__} {value!r}")
            else:
                _validate_node(ftype, value, f"{path}.", problems)
        else:
            _check_leaf(path, key, ftype, value, problems)


def validate(doc: Mapping[str, Any], source: str | None = None) -> None:
    """Check *doc* against the CoreConfig schema; raise
    :class:`UconfigError` listing every problem found.

    Documents may be partial (missing knobs keep their dataclass
    defaults); they may never carry unknown keys, wrong types or
    out-of-range values.
    """
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise UconfigError(
            [f"document root: expected a mapping, got "
             f"{type(doc).__name__}"], source)
    _validate_node(CoreConfig, doc, "", problems)
    if problems:
        raise UconfigError(problems, source)


# -- document <-> CoreConfig -------------------------------------------------


def _to_doc(obj: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    for name, ftype in _field_types(type(obj)).items():
        value = getattr(obj, name)
        doc[name] = _to_doc(value) if dataclasses.is_dataclass(ftype) \
            else value
    return doc


def config_to_doc(config: CoreConfig) -> dict[str, Any]:
    """Dump *config* as a full document: every knob explicit, in
    dataclass field order (stable for committed files)."""
    return _to_doc(config)


def _from_doc(cls: type, doc: Mapping[str, Any]) -> Any:
    kwargs: dict[str, Any] = {}
    for name, ftype in _field_types(cls).items():
        if name not in doc:
            continue
        value = doc[name]
        kwargs[name] = _from_doc(ftype, value) \
            if dataclasses.is_dataclass(ftype) else value
    return cls(**kwargs)


def config_from_doc(doc: Mapping[str, Any],
                    source: str | None = None) -> CoreConfig:
    """Validate *doc* and build the :class:`CoreConfig`; knobs the
    document omits keep their dataclass defaults."""
    validate(doc, source)
    config = _from_doc(CoreConfig, {k: v for k, v in doc.items()
                                    if k not in _META_KEYS})
    assert isinstance(config, CoreConfig)
    return config


# -- overlay merge -----------------------------------------------------------


def merge_overlay(base: Mapping[str, Any],
                  overlay: Mapping[str, Any]) -> dict[str, Any]:
    """Apply *overlay* onto *base* (neither is mutated).

    Scalars overwrite, mappings merge recursively, and an overlay
    mapping containing ``replace: true`` replaces the base object
    wholesale (minus the marker) instead of merging into it.
    """
    merged: dict[str, Any] = {key: value for key, value in base.items()}
    for key, value in overlay.items():
        if isinstance(value, Mapping):
            if value.get(_REPLACE_KEY) is True:
                merged[key] = {k: v for k, v in value.items()
                               if k != _REPLACE_KEY}
            elif isinstance(merged.get(key), Mapping):
                merged[key] = merge_overlay(merged[key], value)
            else:
                merged[key] = {k: v for k, v in value.items()
                               if k != _REPLACE_KEY}
        else:
            merged[key] = value
    return merged


def apply_overrides(doc: Mapping[str, Any],
                    overrides: Mapping[str, Any]) -> dict[str, Any]:
    """Set ``dotted.path -> value`` overrides on a copy of *doc* (the
    sweep-axis mechanism: one override per axis point)."""
    overlay: dict[str, Any] = {}
    for path, value in overrides.items():
        node = overlay
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UconfigError(
                    [f"{path}: override path collides with scalar "
                     f"override at {part!r}"])
        node[parts[-1]] = value
    return merge_overlay(doc, overlay)


# -- file I/O ----------------------------------------------------------------


def _is_yaml_path(path: str) -> bool:
    return path.endswith((".yaml", ".yml"))


def load_doc(path: str) -> dict[str, Any]:
    """Read a document file: ``.yaml``/``.yml`` via PyYAML (when
    available), anything else as JSON."""
    with open(path) as handle:
        text = handle.read()
    if _is_yaml_path(path):
        if yaml is None:
            raise UconfigError(
                [f"{path}: PyYAML is not installed; use a .json "
                 f"document instead"], path)
        loaded = yaml.safe_load(text)
    else:
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UconfigError([f"{path}: invalid JSON: {exc}"],
                               path) from exc
    if not isinstance(loaded, dict):
        raise UconfigError(
            [f"{path}: expected a mapping at document root, got "
             f"{type(loaded).__name__}"], path)
    return loaded


def dump_doc(doc: Mapping[str, Any], path: str) -> None:
    """Write a document file by extension (YAML or JSON)."""
    if _is_yaml_path(path):
        if yaml is None:
            raise UconfigError(
                [f"{path}: PyYAML is not installed; dump to .json "
                 f"instead"], path)
        payload = yaml.safe_dump(dict(doc), sort_keys=False,
                                 default_flow_style=False)
    else:
        payload = json.dumps(dict(doc), indent=2) + "\n"
    with open(path, "w") as handle:
        handle.write(payload)


def dump_config(config: CoreConfig, path: str,
                description: str | None = None) -> None:
    """Dump *config* as a committed-style full document."""
    doc: dict[str, Any] = {}
    if description:
        doc["description"] = description
    doc.update(config_to_doc(config))
    dump_doc(doc, path)


# -- digest ------------------------------------------------------------------


def canonical_json(doc: Mapping[str, Any]) -> str:
    """Sorted-key, minimal-separator JSON: one spelling per document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(config: CoreConfig | Mapping[str, Any]) -> str:
    """Content hash of a config (document or CoreConfig).

    Documents that build equal ``CoreConfig`` objects digest equally:
    the digest is taken over the *resolved* full document (defaults
    filled in, metadata stripped), prefixed with the schema version.
    """
    if isinstance(config, Mapping):
        config = config_from_doc(config)
    blob = f"{SCHEMA_VERSION}\x00{canonical_json(config_to_doc(config))}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- core resolution ---------------------------------------------------------


def describe_core_choices() -> str:
    """The error-message tail for a core that failed to resolve."""
    return (f"known presets: {', '.join(sorted(PRESETS))}; or pass a "
            f"config document path (.yaml/.yml/.json)")


def resolve_core(core: CoreConfig | Mapping[str, Any] | str,
                 extends: tuple[str, ...] | list[str] = ()) -> CoreConfig:
    """Resolve anything a user can name a core with into a CoreConfig.

    *core* may be a :class:`CoreConfig`, an inline document mapping, a
    preset name, or a document file path.  ``extends`` overlay files
    are merged on top in order (TBM ``--extend`` semantics).  The
    resolution is deliberately lazy — argparse never sees a closed
    ``choices`` list, so file-based configs get a clear error path
    instead of parser rejection.
    """
    if isinstance(core, CoreConfig):
        doc = config_to_doc(core)
        source = core.name
    elif isinstance(core, Mapping):
        doc = dict(core)
        source = "<inline config>"
    elif core in PRESETS:
        doc = config_to_doc(get_preset(core))
        source = f"preset {core}"
    elif _is_yaml_path(core) or core.endswith(".json") \
            or os.path.exists(core):
        doc = load_doc(core)
        source = core
    else:
        raise UconfigError(
            [f"unknown core {core!r}: not a preset and not a config "
             f"file on disk ({describe_core_choices()})"], str(core))
    for overlay_path in extends:
        doc = merge_overlay(doc, load_doc(overlay_path))
    return config_from_doc(doc, source)


# -- committed-config gate ---------------------------------------------------


def check_committed_configs(root: str = "configs") -> list[str]:
    """Vet every committed document under *root*; returns problems.

    ``<root>/<name>.yaml`` files must be full documents that build a
    CoreConfig *equal* to the preset of the same name (dataclass
    equality — which is what makes the golden stats bit-identical).
    ``<root>/overlays/*.yaml`` files must merge cleanly onto the xt910
    base and validate as a whole.  An empty list means the directory
    and the Python constructors agree; the ``config-validate`` CI job
    fails on any entry.
    """
    problems: list[str] = []
    names = sorted(fn for fn in os.listdir(root)
                   if fn.endswith((".yaml", ".yml", ".json")))
    if not names:
        return [f"{root}: no config documents found"]
    seen = set()
    for filename in names:
        path = os.path.join(root, filename)
        stem = filename.rsplit(".", 1)[0]
        seen.add(stem)
        try:
            loaded = resolve_core(path)
        except (UconfigError, OSError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        if stem not in PRESETS:
            problems.append(
                f"{path}: no preset named {stem!r} to check against "
                f"({describe_core_choices()})")
            continue
        expected = get_preset(stem)
        if loaded != expected:
            drift = _describe_drift(config_to_doc(expected),
                                    config_to_doc(loaded))
            problems.append(f"{path}: diverges from preset {stem!r} "
                            f"({drift})")
    missing = sorted(set(PRESETS) - seen)
    if missing:
        problems.append(f"{root}: presets without a committed config "
                        f"file: {', '.join(missing)}")
    overlays_dir = os.path.join(root, "overlays")
    if os.path.isdir(overlays_dir):
        base = config_to_doc(get_preset("xt910"))
        for filename in sorted(os.listdir(overlays_dir)):
            if not filename.endswith((".yaml", ".yml", ".json")):
                continue
            path = os.path.join(overlays_dir, filename)
            try:
                config_from_doc(merge_overlay(base, load_doc(path)),
                                source=path)
            except (UconfigError, OSError) as exc:
                problems.append(f"{path}: {exc}")
    return problems


def _describe_drift(expected: Mapping[str, Any],
                    actual: Mapping[str, Any],
                    prefix: str = "") -> str:
    """First differing knob between two documents, dotted-path form."""
    for key in expected:
        exp = expected[key]
        act = actual.get(key)
        if isinstance(exp, Mapping) and isinstance(act, Mapping):
            drift = _describe_drift(exp, act, f"{prefix}{key}.")
            if drift:
                return drift
        elif exp != act:
            return f"first drift at {prefix}{key}: {act!r} != {exp!r}"
    return ""


__all__ = [
    "SCHEMA_VERSION", "UconfigError", "schema", "validate",
    "config_to_doc", "config_from_doc", "merge_overlay",
    "apply_overrides", "load_doc", "dump_doc", "dump_config",
    "canonical_json", "config_digest", "resolve_core",
    "describe_core_choices", "check_committed_configs",
]
