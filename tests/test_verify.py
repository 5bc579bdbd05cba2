import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from confsphere import reps, sphgrid, verify


@pytest.fixture(scope="module")
def quick_results():
    cfg = verify.RunConfig(quick=True)
    return verify.run_all(cfg)


def test_quick_measured_values_are_pinned(quick_results):
    # verify --quick at the default seed; the BLAS thread count moves these
    # values by at most 1.1e-15, so 1e-12 absolute leaves room only for that
    pinned = json.loads((Path(__file__).parent / "data"
                         / "verify_quick_measured.json").read_text())
    checks = [c for res in quick_results for c in res.checks]
    assert [c.id for c in checks] == list(pinned)
    moved = {c.id: (c.measured, pinned[c.id]) for c in checks
             if not abs(c.measured - pinned[c.id]) <= 1e-12}
    assert not moved, moved


def test_all_suites_pass_on_correct_build(quick_results):
    for res in quick_results:
        failing = [c for c in res.checks if not c.passed]
        assert not failing, f"{res.name}: {[(c.id, c.measured) for c in failing]}"


def test_every_check_names_its_identity(quick_results):
    for res in quick_results:
        for c in res.checks:
            assert c.identity and c.identity != c.id


def test_report_roundtrip_and_schema(quick_results):
    cfg = verify.RunConfig(quick=True)
    report = verify.build_report(cfg, quick_results)
    assert verify.validate_report(report) == []
    blob = json.loads(json.dumps(report))
    assert blob["all_passed"] is True
    assert [s["name"] for s in blob["suites"]] == list(verify.SUITE_NAMES)


def _reference_fmt(x):
    if x == 0.0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.11e}")


def _reference_report(cfg, results) -> dict:
    """The report layout written out key by key, as it was before
    build_report serialized the records: the reference the derived layout
    must reproduce."""
    suites = []
    for res in results:
        suites.append({
            "name": res.name,
            "passed": res.passed,
            "elapsed_s": res.elapsed_s,
            "maxrss_mb": res.maxrss_mb,
            "checks": [{
                "id": c.id,
                "identity": c.identity,
                "measured": _reference_fmt(c.measured),
                "tolerance": _reference_fmt(c.tolerance),
                "passed": c.passed,
                "elapsed_s": c.elapsed_s,
                "maxrss_mb": c.maxrss_mb,
            } for c in res.checks],
        })
    return {
        "config": dataclasses.asdict(cfg),
        "suites": suites,
        "all_passed": all(r.passed for r in results),
        "timings": {"total_s": sum(r.elapsed_s for r in results)},
    }


REFERENCE_SCHEMAS = (
    {"config": dict, "suites": list, "all_passed": bool, "timings": dict},
    {"name": str, "passed": bool, "elapsed_s": (int, float),
     "maxrss_mb": (int, float), "checks": list},
    {"id": str, "identity": str, "measured": (int, float),
     "tolerance": (int, float), "passed": bool, "elapsed_s": (int, float),
     "maxrss_mb": (int, float)},
)


def test_report_layout_is_pinned(quick_results):
    # the report is the records serialized: same keys, same order, same
    # values as the layout written out by hand, byte for byte
    cfg = verify.RunConfig(quick=True)
    assert (json.dumps(verify.build_report(cfg, quick_results))
            == json.dumps(_reference_report(cfg, quick_results)))
    derived = (verify.REPORT_SCHEMA, verify.SUITE_SCHEMA, verify.CHECK_SCHEMA)
    assert [list(s.items()) for s in derived] == [list(s.items()) for s in REFERENCE_SCHEMAS]


def test_report_records_suite_memory(quick_results):
    cfg = verify.RunConfig(quick=True)
    report = verify.build_report(cfg, quick_results)
    assert all(s["maxrss_mb"] > 0 for s in report["suites"])
    del report["suites"][0]["maxrss_mb"]
    assert "suite missing 'maxrss_mb'" in verify.validate_report(report)


def test_report_records_check_time(quick_results):
    cfg = verify.RunConfig(quick=True)
    for res in quick_results:
        spent = [c.elapsed_s for c in res.checks]
        assert all(t >= 0 for t in spent)
        assert sum(spent) <= res.elapsed_s
    report = verify.build_report(cfg, quick_results)
    del report["suites"][0]["checks"][0]["elapsed_s"]
    assert "check missing 'elapsed_s'" in verify.validate_report(report)


def test_report_records_check_memory(quick_results):
    # each check stamps the resident-set high-water mark, which only rises
    cfg = verify.RunConfig(quick=True)
    marks = [c.maxrss_mb for res in quick_results for c in res.checks]
    assert marks[0] > 0 and marks == sorted(marks)
    for res in quick_results:
        assert res.checks[-1].maxrss_mb <= res.maxrss_mb
    report = verify.build_report(cfg, quick_results)
    del report["suites"][0]["checks"][0]["maxrss_mb"]
    assert "check missing 'maxrss_mb'" in verify.validate_report(report)


def test_representation_suite_synthesizes_only_sampled_fields(monkeypatch):
    # band-limited inputs act through their coefficients; only the outer
    # step of the group law acts on samples, re-analyzed on the degree-64
    # grid and synthesized to the degree its coefficients carry above
    # rounding, above the input's 8 and below the grid's 64
    degrees, outer = [], []
    synth, act = reps.synth_at_points, reps.pi_act

    def counted(coeffs, points):
        degrees.append(coeffs.L)
        return synth(coeffs, points)

    def acting(*args):
        start = len(degrees)
        moved = act(*args)
        outer.extend(degrees[start:])
        return moved

    monkeypatch.setattr(reps, "synth_at_points", counted)
    monkeypatch.setattr(reps, "pi_act", acting)
    cfg = verify.RunConfig(quick=True)
    assert verify.run_suite("representation", cfg).passed
    assert len(outer) == cfg.count(5)
    assert all(8 < d < 64 for d in outer), outer
    assert degrees.count(32) == 0


def test_schema_validator_catches_problems(quick_results):
    cfg = verify.RunConfig(quick=True)
    report = verify.build_report(cfg, quick_results)
    bad = json.loads(json.dumps(report))
    del bad["all_passed"]
    bad["suites"][0]["checks"][0]["identity"] = ""
    bad["suites"][1]["passed"] = "no"
    bad["suites"][2]["maxrss_mb"] = "61.0"
    bad["suites"][3]["checks"][0]["measured"] = None
    bad["suites"][4]["checks"][0]["tolerance"] = True
    problems = verify.validate_report(bad)
    assert any("all_passed" in p for p in problems)
    assert any("empty identity" in p for p in problems)
    assert "suite key 'passed' has type str" in problems
    assert "suite key 'maxrss_mb' has type str" in problems
    assert "check key 'measured' has type NoneType" in problems
    assert "check key 'tolerance' has type bool" in problems
    assert verify.validate_report({**report, "suites": [[]]}) == [
        "suite is list, not an object"]


def test_fault_injection_breaks_only_residues():
    cfg = verify.RunConfig(quick=True, fault_inject=True)
    res = verify.run_suite("residues", cfg)
    assert not res.passed
    bad = [c.id for c in res.checks if not c.passed]
    assert bad == ["res-operator"]
    geo = verify.run_suite("geometry", cfg)
    assert geo.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope", verify.RunConfig(quick=True))


@pytest.mark.parametrize("seed", [15, 24])
def test_representation_suite_passes_at_other_seeds(seed):
    # seeds whose composed boosts the coarser grids used to truncate
    res = verify.run_suite("representation", verify.RunConfig(quick=True, seed=seed))
    failing = [(c.id, c.measured) for c in res.checks if not c.passed]
    assert not failing, failing


@pytest.mark.parametrize("seed", [0, 4])
def test_generic_invariance_holds_at_formerly_failing_seeds(seed):
    # the full-mode tri-invariance instances of seeds where the direct
    # engine's quadrature error once used up the tolerance (1.9e-3, 1.1e-3)
    drawn = verify.generic_invariance_defects(
        [(seed + 950 + i, seed + 960 + i, seed + 970 + 101 * i) for i in range(10)])
    worst = max(d for d, *_ in drawn)
    assert worst <= 1e-3, worst


@pytest.mark.parametrize("suite, cid, module, attr", [
    ("representation", "rep-group-law", reps, "pi_act"),
    ("representation", "rep-duality", verify, "duality_defect"),
    ("representation", "rep-dirac", verify, "dirac_pair"),
    ("representation", "rep-unitary", sphgrid, "norm_l2"),
    ("intertwining", "int-knapp-stein", verify, "_knapp_stein_intertwining_defect"),
    ("trilinear", "tri-invariance", verify, "invariance_defect"),
])
def test_nan_defect_fails_its_check(monkeypatch, suite, cid, module, attr):
    # the first instance's defect turns NaN; in Python max(0.0, nan) is
    # 0.0, so a check that folds its defects with max would pass with 0.0
    original = getattr(module, attr)
    calls = []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(attr)
        if len(calls) > 1:
            return out
        if hasattr(out, "values"):
            return SimpleNamespace(values=np.full(out.values.shape, np.nan))
        return out * np.nan

    monkeypatch.setattr(module, attr, poisoned)
    res = verify.run_suite(suite, verify.RunConfig(quick=True))
    assert calls
    failing = {c.id: c.measured for c in res.checks if not c.passed}
    assert list(failing) == [cid] and np.isnan(failing[cid])
