"""Lint driver + baseline workflow over the bundled workloads.

The committed ``lint_baseline.json`` is the acceptance record: every
workload must lint with zero findings outside it.
"""

import json

from repro.analysis import (
    compare_to_baseline,
    lint_source,
    lint_workloads,
    load_baseline,
    save_baseline,
)
from repro.analysis.lint import DEFAULT_BASELINE


class TestWorkloadsAgainstBaseline:
    def test_all_workloads_covered_by_baseline(self):
        reports = lint_workloads()
        assert len(reports) == 39
        baseline = load_baseline()
        new, stale = compare_to_baseline(reports, baseline)
        assert new == [], [f"{n}: {f.render()}" for n, f in new]
        assert stale == []

    def test_baseline_is_committed_and_versioned(self):
        assert DEFAULT_BASELINE.exists()
        payload = json.loads(DEFAULT_BASELINE.read_text())
        assert payload["version"] == 1
        # the accepted findings are the vec-mac16 widening-MAC idiom
        assert set(payload["programs"]) == {"vec-mac16"}
        assert all(key.startswith("vreconfig-live:")
                   for key in payload["programs"]["vec-mac16"])

    def test_no_error_severity_findings_anywhere(self):
        for report in lint_workloads():
            errors = [f for f in report.findings
                      if f.severity == "error"]
            assert errors == [], report.name


class TestBaselineWorkflow:
    def test_save_load_roundtrip(self, tmp_path):
        report = lint_source("""
_start:
    add t1, t0, t2
    li a7, 93
    ecall
""", name="seeded")
        path = tmp_path / "baseline.json"
        save_baseline([report], path)
        assert load_baseline(path) == {"seeded": report.keys}

    def test_compare_flags_new_and_stale(self):
        report = lint_source("""
_start:
    add t1, t0, t2
    li a7, 93
    ecall
""", name="prog")
        # empty baseline: everything is new
        new, stale = compare_to_baseline([report], {})
        assert [f.key for _, f in new] == report.keys
        # baseline with an extra key: it comes back stale
        baseline = {"prog": report.keys + ["uninit-read:_start:99:t9"],
                    "gone": ["uninit-read:_start:1:t0"]}
        new, stale = compare_to_baseline([report], baseline)
        assert new == []
        assert ("prog", "uninit-read:_start:99:t9") in stale
        assert ("gone", "uninit-read:_start:1:t0") in stale

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_keys_are_line_stable_not_addr_stable(self):
        base = """
_start:
    li t0, 1
    add t1, t0, t2
    li a7, 93
    ecall
"""
        shifted = base.replace("_start:\n", "_start:\n    nop\n    nop\n")
        keys_a = lint_source(base, name="p").keys
        keys_b = lint_source(shifted, name="p").keys
        # two extra instructions move the address but not the check/
        # register identity; only the line number may differ
        assert len(keys_a) == len(keys_b) == 1
        assert keys_a[0].split(":")[0] == keys_b[0].split(":")[0]
        assert keys_a[0].rsplit(":", 1)[1] == keys_b[0].rsplit(":", 1)[1]


class TestReportShape:
    def test_report_json_shape(self):
        report = lint_source("""
_start:
    vadd.vv v1, v2, v3
    li a7, 93
    ecall
""", name="vec")
        payload = report.to_dict()
        assert payload["name"] == "vec"
        assert payload["blocks"] >= 1
        assert payload["functions"] == 1
        for finding in payload["findings"]:
            assert {"check", "severity", "function", "addr", "line",
                    "message", "extra", "source", "key"} <= set(finding)

