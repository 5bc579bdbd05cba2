"""Command-line driver.

Subcommands: verify, multiplier, pair, residue, trilinear, pole-scan.
Numeric output is scientific notation with 12 significant digits; file
output lands in --out / $CONFSPHERE_OUT / the working directory.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from pathlib import Path

from .lorentz import Dimension
from . import mero, sphgrid, spectral_ops, trilinear, verify

OUT_ENV = "CONFSPHERE_OUT"
DIM = Dimension(3)   # pairings, residues and trilinear forms exist only for n = 3


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _cnum(z: complex):
    return [_fmt(complex(z).real), _fmt(complex(z).imag)]


def _parse_complex(text: str) -> complex:
    """A finite complex number; a trailing 'i' is read as 'j'."""
    try:
        z = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError:
        raise ValueError(f"{text!r} is not a complex number") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{text!r} is not a finite number")
    return z


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get(OUT_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args, name: str, blob: dict) -> None:
    text = json.dumps(blob, indent=2)
    print(text)
    if args.save:
        target = _out_dir(args) / name
        target.write_text(text + "\n")
        print(f"wrote {target}", file=sys.stderr)


def _load_field(spec_text: str):
    """Field argument: 'const:VALUE' (degree 0) or a coefficient-file path."""
    if spec_text.startswith("const:"):
        return sphgrid.coeffs_constant(_parse_complex(spec_text[6:]))
    return sphgrid.load_coeffs(spec_text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    cfg = verify.RunConfig(seed=args.seed, quick=args.quick,
                           fault_inject=args.fault_inject)
    suites = args.suite or None
    results = verify.run_all(cfg, suites)
    report = verify.build_report(cfg, results)
    target = _out_dir(args) / (args.report or "verify_report.json")
    target.write_text(json.dumps(report, indent=2) + "\n")
    for res in results:
        for c in res.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {res.name}/{c.id}  {c.identity}  "
                  f"measured {_fmt(c.measured)}  tol {_fmt(c.tolerance)}")
        print(f"suite {res.name}: {'pass' if res.passed else 'FAIL'} "
              f"({res.elapsed_s:.1f} s)")
    print(f"report: {target}")
    return 0 if report["all_passed"] else 1


def cmd_multiplier(args) -> int:
    if not 0 <= args.L <= sphgrid.MAX_DEGREE:
        raise ValueError(f"--L must be an integer in 0..{sphgrid.MAX_DEGREE}, got {args.L}")
    dim = Dimension(args.n)
    if args.kind == "laplacian":
        vals = spectral_ops.laplacian_multipliers(dim, args.L)
    elif args.kind == "gjms":
        vals = spectral_ops.gjms_multipliers(dim, args.k, args.L)
    else:   # "knapp-stein", the last of --kind's choices
        vals = spectral_ops.knapp_stein_multipliers(dim, _parse_complex(args.alpha), args.L)
    target = _out_dir(args) / (args.csv or f"multiplier_{args.kind}.csv")
    with open(target, "w") as fh:
        fh.write("l,re,im\n")
        for l, v in enumerate(vals):
            fh.write(f"{l},{_fmt(v.real)},{_fmt(v.imag)}\n")
    print(f"wrote {target}")
    return 0


def cmd_pair(args) -> int:
    s = _parse_complex(args.s)
    f = _load_field(args.f)
    value = mero.pair_distance_power(DIM, s, f)
    _emit(args, "pair.json", {
        "s": _cnum(s), "n": DIM.n, "L": f.L, "value": _cnum(value),
    })
    return 0


def cmd_residue(args) -> int:
    spectral_ops.check_order(args.k)
    f = _load_field(args.f)
    center = -(DIM.n - 1.0) - 2.0 * args.k
    fit, = mero.residue_rings(lambda z: mero.pair_distance_power(DIM, z, f),
                              [center], radius=args.radius, m=args.ring_size)
    _emit(args, "residue.json", {
        "center": _cnum(fit.center),
        "radius": _fmt(fit.radius),
        # half-parameter convention: matches c_k (Delta_k f)(base point)
        "residue": _cnum(fit.residue / 2.0),
        "regular": _cnum(fit.regular_value),
        "condition": _fmt(fit.condition),
    })
    return 0


def cmd_trilinear(args) -> int:
    if args.lam:
        lam = tuple(_parse_complex(v) for v in args.lam)
        triple = trilinear.alpha_from_lambda(lam)
        print("converted lambda ->", [
            _cnum(a) for a in triple.alpha], file=sys.stderr)
    else:
        triple = trilinear.lambda_from_alpha(
            tuple(_parse_complex(v) for v in args.alpha))
    fields = [sphgrid.load_coeffs(p) for p in (args.f1, args.f2, args.f3)]
    if args.method == "fast":
        # the K-type sum is exact: its extent and level residual, no estimate
        value, residual = trilinear._ktype_sum(DIM, triple.alpha,
                                               trilinear._component_integrals(fields))
        used = {"S": sum(f.L for f in fields), "recurrence_residual": _fmt(residual)}
    else:
        grid_size = tuple(args.grid)
        reduced = (max(8, 2 * grid_size[0] // 3), max(16, 2 * grid_size[1] // 3))
        value, coarse = (trilinear.generic_form(DIM, triple.alpha, *fields, grid_size=g)
                         for g in (grid_size, reduced))
        used = {"grid": list(grid_size),
                "truncation_error_estimate": _fmt(abs(value - coarse) / (abs(value) + 1e-300))}
    _emit(args, "trilinear.json", {
        "alpha": [_cnum(a) for a in triple.alpha],
        "lambda": [_cnum(l) for l in triple.lam],
        "value": _cnum(value),
        "method": args.method,
        **used,
    })
    return 0


def cmd_pole_scan(args) -> int:
    family = args.family.replace("-", "_")
    # pole_scan reads only its family's parameters
    reports = trilinear.pole_scan(DIM, family, window=tuple(args.window),
                                  a1=_parse_complex(args.a1), a2=_parse_complex(args.a2),
                                  k=args.k, delta=args.delta,
                                  residue_threshold=args.threshold)
    _emit(args, "pole_scan.json", {
        "family": family,
        "poles": [{
            "family": r.family, "k": r.k, "location": r.location,
            "position": _cnum(r.position), "residue": _cnum(r.residue),
            "condition": _fmt(r.condition),
        } for r in reports],
    })
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="confsphere",
        description="Conformal-sphere numerics: verification suites, "
                    "spectral multipliers, regularized pairings, residues "
                    "and invariant trilinear forms.")
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default: ${OUT_ENV} or '.')")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append", choices=verify.SUITE_NAMES,
                   help="run only the named suite(s)")
    v.add_argument("--quick", action="store_true",
                   help="reduced instance counts")
    v.add_argument("--fault-inject", action="store_true",
                   help="perturb a residue constant by 1%% (the residues "
                        "suite must then fail)")
    v.add_argument("--seed", type=int, default=verify.RunConfig.seed)
    v.add_argument("--report", default=None, help="report file name")
    v.set_defaults(func=cmd_verify, save=False)

    m = sub.add_parser("multiplier", help="dump a multiplier table as CSV")
    m.add_argument("--kind", required=True,
                   choices=("laplacian", "gjms", "knapp-stein"))
    m.add_argument("--n", type=int, default=3)
    m.add_argument("--L", type=int, default=32)
    m.add_argument("--k", type=int, default=1, help="order for gjms")
    m.add_argument("--alpha", default="0", help="parameter for knapp-stein")
    m.add_argument("--csv", default=None, help="output file name")
    m.set_defaults(func=cmd_multiplier, save=False)

    q = sub.add_parser("pair", help="regularized pairing (|e-x|^s, f)")
    q.add_argument("--s", required=True, help="exponent, e.g. 2 or -1.5+0.3j")
    q.add_argument("--f", default="const:1", help="coeff file or const:VALUE")
    q.add_argument("--save", action="store_true")
    q.set_defaults(func=cmd_pair)

    r = sub.add_parser("residue", help="ring-fit residue of the pairing at "
                                       "the k-th pole")
    r.add_argument("--k", type=int, default=0)
    r.add_argument("--f", default="const:1")
    r.add_argument("--radius", type=float, default=0.1)
    r.add_argument("--ring-size", type=int, default=16)
    r.add_argument("--save", action="store_true")
    r.set_defaults(func=cmd_residue)

    t = sub.add_parser("trilinear", help="generic invariant trilinear form")
    group = t.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", nargs=3, metavar=("A1", "A2", "A3"))
    group.add_argument("--lam", nargs=3, metavar=("L1", "L2", "L3"))
    t.add_argument("--f1", required=True, help="coefficient file")
    t.add_argument("--f2", required=True)
    t.add_argument("--f3", required=True)
    t.add_argument("--method", choices=("direct", "fast"), default="direct")
    t.add_argument("--grid", nargs=2, type=int, default=trilinear.TRIPLE_GRID,
                   metavar=("NTHETA", "NPHI"), help="direct method only")
    t.add_argument("--save", action="store_true")
    t.set_defaults(func=cmd_trilinear)

    s = sub.add_parser("pole-scan", help="scan the closed-form channel "
                                         "for poles")
    s.add_argument("--family", choices=("alpha3", "singular-line"),
                   required=True)
    s.add_argument("--window", nargs=2, type=float, required=True,
                   metavar=("LO", "HI"))
    s.add_argument("--a1", default="0.31")
    s.add_argument("--a2", default="0.77")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--delta", type=float, default=0.26)
    s.add_argument("--threshold", type=float, default=1e-6)
    s.add_argument("--save", action="store_true")
    s.set_defaults(func=cmd_pole_scan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:   # a bad value, a pole, a bad file
        parser.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
