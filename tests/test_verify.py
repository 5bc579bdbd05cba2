import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from confsphere import reps, spectral_ops, sphgrid, verify
from confsphere.lorentz import inverse, random_element
from conftest import norm_l2


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

    sampled = []
    act_coeffs = reps.pi_act_coeffs

    def sampling(*args):
        sampled.append(args)
        return act_coeffs(*args)

    monkeypatch.setattr(reps, "synth_at_points", counted)
    monkeypatch.setattr(reps, "pi_act", acting)
    monkeypatch.setattr(reps, "pi_act_coeffs", sampling)
    cfg = verify.RunConfig(quick=True)
    assert verify.run_suite("representation", cfg).passed
    assert len(outer) == cfg.count(5)
    assert all(8 < d < 64 for d in outer), outer
    assert degrees.count(32) == 0
    # every other moved field is read through moved_coeffs: only the group
    # law samples a moved field on a grid, three times per instance (its
    # two sides and the call inside pi_act)
    assert len(sampled) == 3 * cfg.count(5)
    assert verify.run_suite("intertwining", cfg).passed
    assert len(sampled) == 3 * cfg.count(5)


def _duality_by_quadrature(lam, g, f, phi, grid):
    """rep-duality's defect as grid quadrature of the moved samples times
    the partner's samples."""
    f_vals = sphgrid.sht_inverse(f.pad(grid.L), grid).values
    phi_vals = sphgrid.sht_inverse(phi.pad(grid.L), grid).values
    lhs = sphgrid.quad(sphgrid.GridFunction(
        grid, reps.pi_act_coeffs(verify.DIM, lam, g, f, grid).values * phi_vals))
    rhs = sphgrid.quad(sphgrid.GridFunction(grid, f_vals * reps.pi_act_coeffs(
        verify.DIM, -complex(lam), inverse(g), phi, grid).values))
    return abs(lhs - rhs)


def _dirac_by_ring_sums(lam, g, phi, grid):
    """rep-dirac's distributional value as the moved samples' ring sums over
    phi, weighted by w_i dphi sum_{l <= grid.L} (2l+1)/(4 pi) P_l(u_i)."""
    moved = reps.pi_act_coeffs(verify.DIM, -complex(lam), inverse(g), phi, grid)
    zonal = np.polynomial.legendre.legval(
        grid.u, (2 * np.arange(grid.L + 1) + 1) / (4.0 * np.pi))
    return complex(np.dot(moved.values.sum(axis=1), grid.w * grid.dphi * zonal))


def _unitary_by_quadrature(lam, g, f, grid):
    """rep-unitary's defect from the grid norms of the moved and the
    unmoved samples."""
    unmoved = norm_l2(sphgrid.sht_inverse(f.pad(grid.L), grid))
    moved = norm_l2(reps.pi_act_coeffs(verify.DIM, lam, g, f, grid))
    return abs(moved - unmoved) / unmoved


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_moved_field_readouts_match_sampled_formulas(monkeypatch, quick):
    # the representation checks read each moved field from its projection
    # (moved_coeffs), rep-dirac from its m = 0 ring sums; at every instance
    # of the suite they agree with grid quadrature and ring sums of the
    # moved samples to rounding
    names = ("duality_defect", "dirac_pair_dual", "unitary_defect")
    calls = {name: [] for name in names}
    for name in names:
        def recorded(*args, _name=name, _original=getattr(verify, name)):
            out = _original(*args)
            calls[_name].append((args, out))
            return out
        monkeypatch.setattr(verify, name, recorded)
    cfg = verify.RunConfig(quick=quick)
    assert verify.run_suite("representation", cfg).passed
    assert [len(calls[name]) for name in names] == [cfg.count(5), cfg.count(20), cfg.count(5)]
    for (lam, g, f, phi, grid), got in calls["duality_defect"]:
        want = _duality_by_quadrature(lam, g, f, phi, grid)
        assert abs(got - want) <= 1e-13 * f.l2_norm() * phi.l2_norm(), (got, want)
    for (lam, g, phi, grid), got in calls["dirac_pair_dual"]:
        want = _dirac_by_ring_sums(lam, g, phi, grid)
        assert abs(got - want) <= 1e-13 * abs(verify.dirac_pair(lam, g, phi)), (got, want)
    for (lam, g, f, grid), got in calls["unitary_defect"]:
        want = _unitary_by_quadrature(lam, g, f, grid)
        assert abs(got - want) <= 1e-13, (got, want)


def test_dirac_pair_dual_is_the_pole_value_of_the_projection():
    # dirac_pair_dual sums only what reaches the pole; the value is that of
    # the moved field's full projection to the grid's degree
    grid = sphgrid.make_grid(48)
    for i in range(4):
        g = random_element(verify.DIM, 300 + i, max_boost=0.6)
        lam = complex(0.3 * (i % 3), 0.1 * i - 0.2)
        phi = sphgrid.random_coeffs(10, 310 + i)
        moved, = verify.moved_coeffs((-lam,), inverse(g), [phi], grid, grid.L)
        want = sphgrid.value_at_pole(moved)
        assert abs(verify.dirac_pair_dual(lam, g, phi, grid) - want) <= 1e-13 * abs(want)


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


@pytest.mark.parametrize("seed", [430, 537, 911])
def test_bernstein_suite_passes_at_formerly_tight_seeds(seed):
    # the sampled degree-96 r^5 once read 1.0014e-6, 0.9995e-6 and 0.996e-6
    # here, against 1e-6, from its aliased tail
    res = verify.run_suite("bernstein", verify.RunConfig(quick=True, seed=seed))
    failing = [(c.id, c.measured) for c in res.checks if not c.passed]
    assert not failing, failing


@pytest.mark.parametrize("table, shifted", [
    ("knapp_stein_multipliers", lambda f: lambda dim, alpha, L: f(dim, alpha + 0.1, L)),
    ("bernstein_multipliers", lambda f: lambda dim, s, L: f(dim, s + 0.1, L)),
], ids=["eigenvalues", "bernstein-table"])
def test_kernel_level_defect_fails_with_a_shifted_parameter(monkeypatch, table, shifted):
    # the zonal series with either table's parameter off by 0.1 misses the
    # step-down identity by O(1) (1.58 and 1.18)
    assert verify._kernel_level_defect(5.0, 1234) <= 1e-9
    monkeypatch.setattr(spectral_ops, table, shifted(getattr(spectral_ops, table)))
    assert verify._kernel_level_defect(5.0, 1234) > 0.1


def test_product_rule_split_is_exact_on_band_limited_kernels():
    # tri-split's default-seed instance: at s = 6, r^6 phi is band-limited,
    # so every Laplacian is exact and only rounding is left (the
    # finite-difference gradient read 2.8e-9)
    seed = verify.RunConfig().seed
    rng = np.random.default_rng(seed + 1200)
    verify._random_points(rng, 1)                   # tri-pullback's x3
    phi = sphgrid.random_coeffs(6, seed + 1203)
    y = verify._random_points(rng, 1)[0]
    pts = verify._random_points(rng, 30)
    pts = pts[np.linalg.norm(pts - y, axis=1) > 0.7]
    assert verify.product_rule_split_defect(6.0, phi, y, pts) <= 1e-11


@pytest.mark.parametrize("suite, cid, module, attr", [
    ("representation", "rep-group-law", reps, "pi_act"),
    ("representation", "rep-duality", verify, "duality_defect"),
    ("representation", "rep-dirac", verify, "dirac_pair"),
    ("representation", "rep-unitary", verify, "unitary_defect"),
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
