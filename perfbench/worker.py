"""Run one workload in this process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (import, inputs, warm-up, then stop), `measure` (set-up,
then timed passes over the operation list until S seconds are used; S = 0
means one pass) or `trace` (one pass with every library layer wrapped in
spans).  run.py starts this script, with src/ of the checkout on the path,
and aggregates what it prints.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# numpy and the scipy oracle load before the set-up clock starts: they are
# the same for every version of the library
import numpy as np

import oracles  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent

PROBE_EVERY_S = 0.1       # timer period of the speed probe
SMOOTH = 11               # probes per running median (about 1 s)


def _python_work(rng=np.random.default_rng(0)):
    a, v = rng.standard_normal((32, 32)), rng.standard_normal(1024)

    def work():
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        for _ in range(16):
            (a @ a).sum()
            np.sin(v).sum()
    return work


def _array_work(rng=np.random.default_rng(0)):
    v = rng.standard_normal(65536)

    def work():
        for _ in range(2):
            np.exp(v).sum()
    return work


# probe kind: (its work, its time on the reference machine in the fast state)
PROBES = {"python": (_python_work, 0.45e-3), "array": (_array_work, 0.17e-3)}


class SpeedProbe:
    """Times a fixed piece of numpy work every PROBE_EVERY_S seconds, from
    a timer signal, while the passes run.

    A shared host changes the speed of its cores by up to 1.5x within
    seconds, and the slow spells come and go over tens of seconds.
    `factor(start, end)` is the probe's reference time over its time
    around that interval, so an operation's time times its factor is its
    time at the reference speed.  Code of different kinds slows by
    different amounts in a slow spell, so each workload names the probe
    kind whose times track its own pass times best (`Workload.probe`):
    "python", an interpreter loop and calls on small arrays, or "array",
    elementwise exp over 64K doubles.  The handler runs between bytecodes
    of this process and touches no library state; its own time is taken
    out of the operations it lands in.
    """

    def __init__(self, kind):
        make, self.ref_s = PROBES[kind]
        self._work = make()
        self.entries, self.starts, self.ends = [], [], []
        self._smooth = []

    def _tick(self, signum, frame):
        self.entries.append(time.perf_counter())
        self._work()              # once untimed, to bring it back into cache
        start = time.perf_counter()
        self._work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def sample(self, n=3):
        """Take n probes now, outside the timer."""
        for _ in range(n):
            self._tick(None, None)

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def own_time(self, start, end):
        """Time the probe's handler spent inside [start, end]."""
        lo = bisect.bisect_left(self.entries, start)
        hi = bisect.bisect_right(self.entries, end)
        return sum(self.ends[i] - self.entries[i] for i in range(lo, hi))

    def factor(self, start, end):
        """Mean of the reference time over the probe time, over the probes
        inside [start, end] and the one on either side of it.  Each probe
        time is first replaced by the median of the SMOOTH probes around
        it, so that one probe a context switch slowed moves nothing."""
        if len(self._smooth) != len(self.starts):
            times = [e - s for s, e in zip(self.starts, self.ends)]
            half = SMOOTH // 2
            self._smooth = [statistics.median(times[max(i - half, 0): i + half + 1])
                            for i in range(len(times))]
        lo = max(bisect.bisect_left(self.starts, start) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, end) + 1, len(self.starts))
        return statistics.fmean(self.ref_s / self._smooth[i] for i in range(lo, hi))

    def setup_factor(self):
        """Median of the reference time over the probe time, over every
        probe taken."""
        return statistics.median(self.ref_s / (e - s) for s, e in zip(self.starts, self.ends))


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metadata(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = git / "packed-refs"
            lines = packed.read_text().splitlines() if packed.is_file() else []
            commit = ((git / ref).read_text().strip() if (git / ref).is_file()
                      else next((l.split()[0] for l in lines if l.endswith(" " + ref)), ref))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "commit": commit, "seed": seed}


def _run_pass(ops, tracker):
    for op in ops:
        tracker["attempted"] += 1
        start = time.perf_counter()
        try:
            result = op.call()
            tracker["spans"].append((start, time.perf_counter()))
            defect = float(op.check(result))
            if op.extra is not None:
                tracker["extra"].update(op.extra(result))
        except Exception:   # an exception is a failed operation, not a crash
            tracker["spans"].append((start, time.perf_counter()))
            traceback.print_exc(file=sys.stderr)
            defect = float("nan")
        if not defect <= op.tol:
            tracker["failed"] += 1
            tracker["failures"].append({"op": op.label, "defect": defect,
                                        "tol": op.tol})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)

    # the set-up is too short for the timer: probes just before and just
    # after it give its speed factor; which kind is known only once the
    # workloads are imported, so both kinds are taken
    setup_probes = {kind: SpeedProbe(kind) for kind in PROBES}
    for probe in setup_probes.values():
        probe.sample()
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import confsphere
    if not Path(confsphere.__file__).resolve().is_relative_to(src.resolve()):
        print(f"confsphere imported from {confsphere.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, 0)
    wl.warmup()
    end = time.perf_counter()
    for probe in setup_probes.values():
        probe.sample()
    factor = setup_probes[wl.probe].setup_factor()
    out = {"setup_s": end - start, "ref_setup_s": (end - start) * factor}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    expected = getattr(wl, "expected", lambda inp: None)
    expected(inputs)

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    tracker = {"attempted": 0, "failed": 0, "failures": [], "spans": [],
               "extra": {}}
    passes = []
    # the probe runs in measuring processes only: in a traced one its time
    # would land in the self time of whichever layer it interrupted
    probe = SpeedProbe(wl.probe) if args.mode == "measure" else None
    with probe or contextlib.nullcontext():
        loop_start = time.perf_counter()
        index = 0
        while True:
            ops = wl.ops(inputs)
            t0 = time.perf_counter()
            _run_pass(ops, tracker)
            passes.append((t0, time.perf_counter()))
            del ops
            index += 1
            # stop before a pass that would overrun the budget
            used = time.perf_counter() - loop_start
            if used + statistics.median(b - a for a, b in passes) > args.seconds:
                break
            inputs = wl.inputs(args.seed, index)
            expected(inputs)

    # times without the probe handler's own; ref_* at the probe's reference speed
    own = probe.own_time if probe else (lambda a, b: 0.0)
    walls = [b - a - own(a, b) for a, b in passes]
    spans = tracker.pop("spans")
    out.update(tracker, walls=walls,
               op_ms=[1e3 * (b - a - own(a, b)) for a, b in spans],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               meta=_metadata(args.seed))
    if probe is not None:
        out["ref_walls"] = [w * probe.factor(a, b) for w, (a, b) in zip(walls, passes)]
        out["ref_op_ms"] = [ms * probe.factor(a, b) for ms, (a, b) in zip(out["op_ms"], spans)]
        out["probe_ms"] = [1e3 * (e - s) for s, e in zip(probe.starts, probe.ends)]
    if tracer is not None:
        out["trace"] = dict(tracer.summary(), counts=tracer.counts,
                            absent=tracer.absent, wrapped=len(tracer.wrapped))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
