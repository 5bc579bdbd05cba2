"""confsphere benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every workload runs in processes of its own (started from here with the
checkout's src/ on the path), so peak memory belongs to that workload
alone.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable table with the run's metadata.  A full record, with every
layer, span count and the raw samples, is written to
perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json.

--trace 0 reports the end-to-end metrics (`END_TO_END`), with every time
rescaled to the reference speed of a probe that runs beside the workload
(worker.SpeedProbe) interleaved with it, because the shared host this was tuned on changes
its speed by up to 1.5x from one run to the next; the times as measured
are printed in the table as raw_*.  --trace 1 runs
one untraced and two traced passes and reports the per-layer metrics
(`PER_LAYER`), the tracing overhead and whether the work counts repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("battery", "spectral", "transform")     # the ones BENCHMARK.json names
# runnable by name but not part of `all`: one run of it takes ~46 s at one
# BLAS thread, which beside battery's ~42 s overruns the time the
# benchmark's repeated runs may take (perfbench/README.md)
EXTRA_WORKLOADS = ("generic_large",)
SETUP_SAMPLES = 5          # set-ups per run; setup_s is their median
WORKLOAD_BUDGET_S = 175    # all processes of one workload end within this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# times at the speed probe's reference speed (worker.SpeedProbe); the
# table and the record also give them as measured, under RAW
END_TO_END = (
    ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
RAW = (("raw_wall_s", "s"), ("raw_op_p50_ms", "ms"), ("raw_op_tail_ms", "ms"),
       ("raw_setup_s", "s"))

# (metric, unit, source).  Sources: ("self_s"|"s"|"calls", span name),
# ("count", counter), ("frac", numerator counter, denominator counter),
# ("extra", key reported by an operation), ("trace", key of this run).
PER_LAYER = (
    ("trilinear.chordal_power.self_s", "s", ("self_s", "trilinear.chordal_power")),
    ("trilinear.chordal_power.entries", "count", ("count", "trilinear.chordal_power.entries")),
    ("trilinear.kernel_unique_frac", "frac",
     ("frac", "trilinear.chordal_power.unique_entries", "trilinear.chordal_power.entries")),
    ("trilinear.TripleEngine.init_s", "s", ("s", "trilinear.TripleEngine.__init__")),
    ("trilinear.TripleEngine.value_s", "s", ("s", "trilinear.TripleEngine.value")),
    ("trilinear.singular_form.self_s", "s", ("self_s", "trilinear.singular_form")),
    ("trilinear.singular_form.calls", "count", ("calls", "trilinear.singular_form")),
    ("trilinear.generic_form_alpha3_family.s", "s", ("s", "trilinear.generic_form_alpha3_family")),
    ("sphgrid.sht_forward_columns.self_s", "s", ("self_s", "sphgrid.sht_forward_columns")),
    ("sphgrid.sht_forward_columns.columns", "count", ("count", "sphgrid.sht_forward_columns.columns")),
    ("sphgrid.sht_synthesize_columns.self_s", "s", ("self_s", "sphgrid.sht_synthesize_columns")),
    ("sphgrid.sht_synthesize_columns.columns", "count",
     ("count", "sphgrid.sht_synthesize_columns.columns")),
    ("sphgrid.legendre_table.calls", "count", ("calls", "sphgrid.legendre_table")),
    ("sphgrid.legendre_table.self_s", "s", ("self_s", "sphgrid.legendre_table")),
    ("sphgrid.legendre_table.repeat_frac", "frac",
     ("frac", "sphgrid.legendre_table.repeats", "sphgrid.legendre_table.keyed_calls")),
    ("sphgrid.synth_at_points.self_s", "s", ("self_s", "sphgrid.synth_at_points")),
    ("sphgrid.synth_at_points.terms", "count", ("count", "sphgrid.synth_at_points.terms")),
    ("sphgrid.sht_forward.self_s", "s", ("self_s", "sphgrid.sht_forward")),
    ("sphgrid.sht_inverse.self_s", "s", ("self_s", "sphgrid.sht_inverse")),
    ("reps.pi_act.s", "s", ("s", "reps.pi_act")),
    ("reps.pi_act_coeffs.s", "s", ("s", "reps.pi_act_coeffs")),
    ("special.tanhsinh_unit.calls", "count", ("calls", "special.tanhsinh_unit")),
    ("special.tanhsinh_unit.nodes", "count", ("count", "special.tanhsinh_unit.nodes")),
    ("special.tanhsinh_unit.self_s", "s", ("self_s", "special.tanhsinh_unit")),
    ("sphgrid.kernel_eigenvalues.calls", "count", ("calls", "sphgrid.kernel_eigenvalues")),
    ("spectral_ops.knapp_stein_multipliers.calls", "count",
     ("calls", "spectral_ops.knapp_stein_multipliers")),
    ("spectral_ops.knapp_stein_multipliers.self_s", "s",
     ("self_s", "spectral_ops.knapp_stein_multipliers")),
    ("spectral_ops.knapp_stein_multipliers.descent_steps", "count",
     ("count", "spectral_ops.knapp_stein_multipliers.descent_steps")),
    ("mero.pair_distance_power.self_s", "s", ("self_s", "mero.pair_distance_power")),
    ("mero.residue_ring.calls", "count", ("calls", "mero.residue_ring")),
    ("mero.residue_ring.samples", "count", ("count", "mero.residue_ring.samples")),
    ("special.gamma_ratio.calls", "count", ("calls", "special.gamma_ratio")),
    ("spectral_ops.multiplier_family.repeat_frac", "frac",
     ("frac", "spectral_ops.multiplier_family.repeats",
      "spectral_ops.multiplier_family.keyed_calls")),
    ("lorentz.act.points", "count", ("count", "lorentz.act.points")),
    ("lorentz.act.self_s", "s", ("self_s", "lorentz.act")),
    ("lorentz.conformal_factor.self_s", "s", ("self_s", "lorentz.conformal_factor")),
) + tuple(
    (f"verify.suite.{name}.elapsed_s", "s", ("extra", f"verify.suite.{name}.elapsed_s"))
    for name in ("geometry", "representation", "bernstein", "residues",
                 "intertwining", "trilinear")
) + (
    ("trace.overhead_s", "s", ("trace", "overhead_s")),
    ("trace.top_level_frac", "frac", ("trace", "top_level_frac")),
    ("trace.spans", "count", ("trace", "spans")),
    ("trace.absent", "count", ("trace", "absent")),
    ("trace.counts_repeat", "count", ("trace", "counts_repeat")),
)


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, mode: str, seconds: float,
           deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread: on a machine of a few shared cores, a second
    # OpenBLAS thread spin-waits beside every small product and stalls
    # whenever anything else takes a core, so a two-thread run measures
    # the scheduler (spectral took 2.4x longer beside one busy process)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode}: over the {WORKLOAD_BUDGET_S} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(samples):
    """(value, percentile, samples beyond): the highest whole percentile
    (nearest rank) with at least ten samples beyond it, p99 at most; the
    maximum when not even the median has ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], float(pct), n - rank
    return ordered[-1], 100.0, 0


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # set-ups before and after the measuring process, so that they sample
    # the machine at both ends of the run
    setup = lambda: _child(workload, seed, "setup", 0, deadline)
    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    run = _child(workload, seed, "measure", seconds, deadline)
    setups.append(run)
    setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
    tail, pct, beyond = _tail(run["ref_op_ms"])
    metrics = {
        "wall_s": statistics.median(run["ref_walls"]),
        "op_p50_ms": statistics.median(run["ref_op_ms"]),
        "op_tail_ms": tail,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
    }
    raw = {
        "raw_wall_s": statistics.median(run["walls"]),
        "raw_op_p50_ms": statistics.median(run["op_ms"]),
        "raw_op_tail_ms": _tail(run["op_ms"])[0],
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return {"metrics": metrics, "units": dict(END_TO_END + RAW), "raw_metrics": raw,
            "attempted": run["attempted"], "failed": run["failed"],
            "failures": run["failures"], "meta": run["meta"],
            "notes": {"passes": len(run["walls"]), "ops": len(run["op_ms"]),
                      "op_tail_pct": pct, "op_tail_beyond": beyond,
                      "fail_frac": run["failed"] / run["attempted"],
                      "probe_ms_median": statistics.median(run["probe_ms"])},
            "raw": {"setup_s": [s["setup_s"] for s in setups],
                    "ref_setup_s": [s["ref_setup_s"] for s in setups],
                    "walls": run["walls"], "ref_walls": run["ref_walls"],
                    "probe_ms": run["probe_ms"]}}


def trace(workload: str, seed: int, deadline: float) -> dict:
    plain = _child(workload, seed, "measure", 0, deadline)
    traced = [_child(workload, seed, "trace", 0, deadline) for _ in range(2)]
    first = traced[0]["trace"]
    repeat = all(t["trace"]["counts"] == first["counts"]
                 and t["trace"]["spans"] == first["spans"] for t in traced)
    traced_wall = statistics.mean(t["walls"][0] for t in traced)
    info = {
        "overhead_s": traced_wall - plain["walls"][0],
        "top_level_frac": statistics.mean(t["trace"]["top_level_s"] / t["walls"][0]
                                          for t in traced),
        "spans": first["spans"], "absent": len(first["absent"]),
        "counts_repeat": int(repeat),
    }
    runs = traced + [plain]

    def resolve(source):
        kind = source[0]
        if kind in ("self_s", "s", "calls"):
            # a layer the pass never called reads 0
            return statistics.mean(t["trace"]["layers"].get(source[1], {}).get(kind, 0.0)
                                   for t in traced)
        if kind == "count":
            return first["counts"].get(source[1], 0)
        if kind == "frac":
            den = first["counts"].get(source[2], 0)
            return first["counts"].get(source[1], 0) / den if den else 0.0
        if kind == "extra":
            return statistics.mean(t["extra"].get(source[1], 0.0) for t in traced)
        return info[source[1]]

    metrics = {name: resolve(source) for name, _, source in PER_LAYER}
    return {"metrics": metrics, "units": {n: u for n, u, _ in PER_LAYER},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + (0 if repeat else 1),
            "failures": [f for r in runs for f in r["failures"]]
                        + ([] if repeat else [{"op": "work counts repeat"}]),
            "meta": plain["meta"],
            "notes": {"absent": first["absent"], "wrapped": first["wrapped"],
                      "traced_wall_s": traced_wall, "untraced_wall_s": plain["walls"][0]},
            "layers": first["layers"], "counts": first["counts"]}


def _print_table(workload: str, res: dict, trace_mode: bool) -> None:
    meta = res["meta"]
    print(f"== {workload}  seed {meta['seed']}  commit {meta['commit'][:12]}")
    print(f"   nproc {meta['nproc']}  cpu {meta['cpu']}  python {meta['python']}"
          f"  numpy {meta['numpy']}  blas {meta['blas']} ({meta['blas_threads']} threads)")
    absent = set(res["notes"].get("absent", ()))
    for name, value in {**res["metrics"], **res.get("raw_metrics", {})}.items():
        mark = ""
        if trace_mode and any(name.startswith(a + ".") for a in absent):
            mark = "  (absent)"
        print(f"   {name:<52} {value:>16.6g} {res['units'][name]}{mark}")
    notes = res["notes"]
    if trace_mode:
        print(f"   absent names: {', '.join(notes['absent']) or 'none'}")
    else:
        print(f"   {'fail_frac':<52} {notes['fail_frac']:>16.6g} ratio")
        print(f"   op_tail_ms is p{notes['op_tail_pct']:.2f} of {notes['ops']} operations"
              f" ({notes['op_tail_beyond']} beyond) over {notes['passes']} passes;"
              f" speed probe median {notes['probe_ms_median']:.4f} ms")
    for f in res["failures"]:
        print(f"   FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "confsphere" / "__init__.py").is_file():
        print(f"no confsphere sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + WORKLOAD_BUDGET_S
            results[name] = (trace(name, args.seed, deadline) if args.trace
                             else measure(name, args.seed, args.seconds, deadline))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for name, res in results.items():
        _print_table(name, res, bool(args.trace))
        record = dict(res, workload=name, seconds=args.seconds, trace=args.trace)
        (out_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")

    single = len(results) == 1
    metrics = {(k if single else f"{w}.{k}"): {"value": v, "unit": r["units"][k]}
               for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
