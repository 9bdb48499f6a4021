"""Command-line surface: analyze, region, integrate, bench, optimize.

Every output starts with a header line recording version, command, seed,
and flags, so emitted CSV/JSON artifacts are self-describing.  Exit codes:
0 success, 1 usage error or bad input (unknown id, bad tolerance, bad
search setting, unwritable output path), 2 stiffness failure, 3 budget
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import analyze_method, stability_polynomial, stability_region_grid
from .bench import (
    DEFAULT_TOLERANCES,
    BenchPlan,
    reference_endpoint,
    rows_to_csv,
    run_bench,
)
from .controller import GAINS, make_controller
from .integrator import BudgetError, StiffnessError, integrate_adaptive
from .optimizer import OptimizationSpec, optimize_embedded
from .problems import PROBLEM_IDS, make_problem
from .tableau import catalog_ids, resolve

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # spec reserves exit code 2 for stiffness failures; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _header(args) -> str:
    skip = {"func", "cmd", "out"}
    flags = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    )
    return f"# sspkit {__version__} cmd={args.cmd} {flags}"


def _emit(args, lines, path=None) -> None:
    """The header and the lines, to ``path`` (default ``--out``) or stdout."""
    text = "\n".join([_header(args), *lines]) + "\n"
    path = path or args.out
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path) -> None:
    """Refuse an output path that cannot be written, before any work."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.exists(path):
        ok = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if not ok:
        raise ValueError(f"cannot write to {path!r}")


def _cmd_analyze(args) -> int:
    rep = analyze_method(resolve(args.method, seed=args.seed))
    if args.json:
        _emit(args, [json.dumps(rep)])
    else:
        width = max(len(k) for k in rep)
        _emit(args, [f"{k:<{width}}  {v}" for k, v in rep.items()])
    return 0


def _cmd_region(args) -> int:
    tab = resolve(args.method, seed=args.seed)
    w = tab.b if args.weights == "main" else tab.b_tilde
    if w is None:
        raise ValueError(f"method {args.method!r} has no embedded weights")
    coeffs = stability_polynomial(tab.A, w)
    re, im, z = stability_region_grid(
        coeffs,
        re_range=(args.re[0], args.re[1]),
        im_range=(args.im[0], args.im[1]),
        nx=args.nx,
        ny=args.ny,
    )
    lines = ["re,im,abs_psi"]
    for j in range(args.ny):
        for i in range(args.nx):
            lines.append(f"{re[i]:.12g},{im[j]:.12g},{z[j, i]:.12g}")
    _emit(args, lines)
    return 0


def _cmd_integrate(args) -> int:
    tab = resolve(args.method, seed=args.seed)
    prob = make_problem(args.problem, n_cells=args.n_cells)
    atol = args.atol if args.atol is not None else args.tol
    rtol = args.rtol if args.rtol is not None else args.tol
    res = integrate_adaptive(prob, tab, make_controller(args.controller), atol, rtol)
    if args.trace:
        rows = [
            f"{t:.12g},{dt:.12g},{err:.12g},{int(acc)}"
            for t, dt, err, acc in res.step_log
        ]
        _emit(args, ["t,dt,err,accepted", *rows], args.trace)
    summary = {
        "method": tab.id,
        "problem": args.problem,
        "steps": res.n_attempts,
        "accepted": res.n_accepted,
        "rejected": res.n_rejected,
        "nfev": res.n_fev,
        "t_final": res.t,
    }
    if not args.skip_error:
        u_ref = reference_endpoint(args.problem, n_cells=args.n_cells)
        summary["l2_error"] = float(np.linalg.norm(res.u - u_ref))
    if args.json:
        _emit(args, [json.dumps(summary)])
    else:
        _emit(args, [f"{k}: {v}" for k, v in summary.items()])
    return 0


def _cmd_bench(args) -> int:
    if args.relative_to is not None and args.relative_to not in args.methods:
        raise ValueError(f"--relative-to {args.relative_to!r} is not one of --methods")
    plan = BenchPlan(
        methods=tuple(args.methods),
        problems=tuple(args.problems),
        tolerances=tuple(args.tols),
        controller=args.controller,
        n_jobs=args.jobs,
        seed=args.seed,
    )
    rows = run_bench(plan)
    _emit(args, rows_to_csv(rows, relative_to=args.relative_to))
    return 0


def _cmd_optimize(args) -> int:
    base = resolve(args.method, seed=args.seed)
    spec = OptimizationSpec(
        tableau=base,
        require_ssp_at=args.require_ssp,
        seeds=args.seeds,
        budget=args.budget,
        seed=args.seed,
    )
    doc = {"method": base.id, **asdict(optimize_embedded(spec))}
    if doc["w"] is not None:
        doc["w"] = doc["w"].tolist()
    _emit(args, [json.dumps(doc)])
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="sspkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"sspkit {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write output to this file")

    sp = sub.add_parser("analyze", help="error measures, stability radii, SSP report")
    sp.add_argument("method", help=f"method id, e.g. one of {', '.join(catalog_ids()[:4])}, ...")
    sp.add_argument("--json", action="store_true", help="one JSON object instead of aligned text")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("region", help="stability-region grid as CSV")
    sp.add_argument("method")
    sp.add_argument("--weights", choices=("main", "embedded"), default="main")
    sp.add_argument("--re", type=float, nargs=2, default=(-12.0, 2.0), metavar=("MIN", "MAX"))
    sp.add_argument("--im", type=float, nargs=2, default=(-8.0, 8.0), metavar=("MIN", "MAX"))
    sp.add_argument("--nx", type=int, default=201)
    sp.add_argument("--ny", type=int, default=201)
    common(sp)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("integrate", help="adaptive integration with trace/summary")
    sp.add_argument("--method", required=True)
    sp.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--rtol", type=float, default=None)
    sp.add_argument("--controller", choices=tuple(GAINS), default="pid")
    sp.add_argument("--trace", default=None, help="write per-attempt CSV here")
    sp.add_argument("--n-cells", type=int, default=200)
    sp.add_argument("--skip-error", action="store_true",
                    help="skip the reference run that yields l2_error")
    sp.add_argument("--json", action="store_true", help="one JSON object instead of key: value lines")
    common(sp)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("bench", help="work-precision sweep as CSV")
    sp.add_argument("--methods", required=True, nargs="+",
                    help="method ids (space separated; ids contain commas)")
    sp.add_argument("--problems", required=True, nargs="+", choices=PROBLEM_IDS)
    sp.add_argument("--tols", type=float, nargs="+", default=list(DEFAULT_TOLERANCES))
    sp.add_argument("--controller", choices=tuple(GAINS), default="pid")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--relative-to", default=None, help="normalize nfev by this method")
    common(sp)
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("optimize", help="search embedded weights for a base method")
    sp.add_argument("method", help="base method id, e.g. ssp3,2")
    sp.add_argument("--require-ssp", type=float, default=None)
    sp.add_argument("--seeds", type=int, default=100)
    sp.add_argument("--budget", type=int, default=200_000)
    common(sp)
    sp.set_defaults(func=_cmd_optimize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (args.out, getattr(args, "trace", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except ValueError as exc:
        print(f"sspkit: error: {exc}", file=sys.stderr)
        return 1
    except StiffnessError as exc:
        print(f"sspkit: stiffness failure: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"sspkit: budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
