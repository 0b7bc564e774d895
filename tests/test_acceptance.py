"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines as they complete. The module runs the CLI's ``verify-all``
once and keeps the results it wrote to ``report.json``, which without its
wall times is pinned byte-wise by ``golden/verify_all_report.json``. Every
``diagnose`` table is written from those same results, with no criterion
run a second time, and pinned byte-wise by ``golden/diagnose_tables.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest.mock import patch

import pytest

from qatlab.acceptance import TIME_BUDGETS, run_all
from qatlab.cli import DIAGNOSE_NAMES, main

REPORT_DIGEST_PATH = Path(__file__).parent / "golden" / "verify_all_report.json"
TABLE_DIGESTS_PATH = Path(__file__).parent / "golden" / "diagnose_tables.json"
WALL_TIME_KEYS = ("elapsed_s", "total_elapsed_s")


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """One ``verify-all`` run for the module: its exit status, report.json and results."""
    out = tmp_path_factory.mktemp("verify-all")
    recorded = []

    def recording_run_all(*args, **kwargs):
        recorded.extend(run_all(*args, **kwargs))
        return recorded

    with patch("qatlab.cli.run_all", recording_run_all):
        status = main(["verify-all", "--out", str(out)])
    return status, json.loads((out / "report.json").read_text()), recorded


@pytest.fixture(scope="module")
def results(verify_all):
    return {r.name: r for r in verify_all[2]}


def _without_wall_times(value):
    if isinstance(value, dict):
        return {k: _without_wall_times(v) for k, v in value.items() if k not in WALL_TIME_KEYS}
    if isinstance(value, list):
        return [_without_wall_times(v) for v in value]
    return value


def check(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, f"{name} failed: {json.dumps(r.details, default=str)[:2000]}"
    assert r.elapsed_s < TIME_BUDGETS[name]
    return r


def test_a1_quantizer_suite(results):
    r = check(results, "A1")
    assert r.details["grid_membership"] and r.details["idempotence"]
    assert r.details["monotonicity"] and r.details["dither_unbiasedness"]


def test_a2_probe_ls_rate(results):
    r = check(results, "A2")
    assert -0.65 <= r.details["slope"] <= -0.35


def test_a3_dither_fixed_point(results):
    r = check(results, "A3")
    assert r.details["max_final_error"] <= 0.05
    assert r.details["first_reach_update"] <= 2000


def test_a4_vr_variance(results):
    r = check(results, "A4")
    assert r.details["svrg_variance"] <= 0.5 * r.details["plain_variance"]
    assert r.details["max_unbiasedness_dev"] <= 1e-12


def test_a5_pl_contraction(results):
    r = check(results, "A5")
    assert r.details["worst_ratio_perturbed"] <= 1 - 0.5 * 0.1 + 1e-3
    assert r.details["floor_jac_err_0"] < r.details["floor_jac_err_0.2"]


def test_a6_dominance(results):
    r = check(results, "A6")
    for key, wins in r.details["wins_of_5"].items():
        assert wins >= 4, f"{key}: only {wins}/5 seeds"


def test_a7_tracking(results):
    r = check(results, "A7")
    assert r.details["static_terminal"] <= 0.05
    assert r.details["slow_terminal"] < r.details["fast_terminal"]


def test_a8_window_composition(results):
    r = check(results, "A8")
    assert r.details["final_gap_decaying"] < r.details["final_gap_constant"]


def test_a9_reduction_and_determinism(results):
    r = check(results, "A9")
    assert r.details["max_sgd_deviation"] <= 1e-8
    assert r.details["byte_identical_metrics"]


def test_verify_all_end_to_end(results, verify_all):
    # A1-A8 together stay within the ten-minute budget, and the CLI
    # aggregates them into a report with a matching exit status.
    total = sum(results[name].elapsed_s for name in
                ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"))
    print(f"verify-all core criteria total: {total:.1f}s (< 600s)")
    assert total < 600.0
    status, report, _ = verify_all
    assert status == 0
    assert report["passed"] is True
    assert {c["name"] for c in report["criteria"]} == {f"A{i}" for i in range(1, 10)}
    assert report["total_elapsed_s"] < 600.0
    # every other byte is deterministic; a change must be declared like a golden digest
    stripped = json.dumps(_without_wall_times(report), indent=2, sort_keys=True).encode()
    got = {"report.json": hashlib.sha256(stripped).hexdigest()}
    assert got == json.loads(REPORT_DIGEST_PATH.read_text()), (
        "verify-all report changed; new digest:\n" + json.dumps(got, indent=2))


def test_only_diagnose_criteria_have_tables(results):
    assert {name for name, r in results.items() if r.table is not None} == set(
        DIAGNOSE_NAMES.values())


@pytest.mark.parametrize("name", sorted(DIAGNOSE_NAMES))
def test_diagnose_writes_its_table_and_verdict(results, tmp_path, name):
    criterion = DIAGNOSE_NAMES[name]
    with patch("qatlab.cli.run_all", lambda names: [results[n] for n in names]):
        assert main(["diagnose", name, "--out", str(tmp_path)]) == 0
    # every byte of the table is deterministic; a change must be declared like a golden digest
    digest = hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest()
    assert digest == json.loads(TABLE_DIGESTS_PATH.read_text())[name], (
        f"{name} table.csv changed; new digest: {digest}")
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert (verdict["harness"], verdict["criterion"], verdict["passed"]) == (name, criterion, True)
