"""Command line entry point.

Subcommands: nsp-check, width, bounds, recover, phase, preserve.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import NsplabError
from .harness import ExperimentConfig, _fmt, run_experiment
from .nsp import certificate_to_json, certify_nsp
from .numerics import read_matrix_text, read_vector_text
from .smallball import BoundInputs, bounds_table
from .solver import recovery_result_to_json, solve_l1_synthesis


def _cmd_nsp_check(args) -> int:
    A = read_matrix_text(args.A)
    cert = certify_nsp(A, args.s, tol=args.tol)
    print(json.dumps(certificate_to_json(cert)))
    return 0


def _cmd_bounds(args) -> int:
    b = BoundInputs(
        eta=args.eta,
        gamma=args.gamma,
        rho=args.rho,
        alpha=args.alpha,
        sigma=args.sigma,
        C=args.C,
        s=args.s,
        n=args.n,
        kappa=args.kappa,
    )
    rows = bounds_table(b, width=args.width, m=args.m)
    print(",".join(rows[0]))
    for r in rows:
        print(",".join(_fmt(v) for v in r.values()))
    return 0


def _cmd_recover(args) -> int:
    B = read_matrix_text(args.B)
    y = read_vector_text(args.y)
    result = solve_l1_synthesis(B, y, args.eps)
    payload = recovery_result_to_json(result)
    z_hat = None
    if args.D and result.x_hat is not None:
        z_hat = (read_matrix_text(args.D) @ result.x_hat).tolist()
    payload["z_hat"] = z_hat
    if args.x0 and result.x_hat is not None:
        x0 = read_vector_text(args.x0)
        if x0.size != result.x_hat.size:
            raise NsplabError(f"x0 has {x0.size} entries, the solution has {result.x_hat.size}")
        payload["err_x"] = float(sum((a - b) ** 2 for a, b in zip(result.x_hat, x0)) ** 0.5)
    print(json.dumps(payload))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    expected = args.experiment
    if cfg.experiment != expected:
        raise NsplabError(f"config is for {cfg.experiment!r}, this command runs {expected!r}")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    text = run_experiment(cfg)
    if not args.quiet:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nsplab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nsp-check", help="certify the stable NSP of a matrix")
    p.add_argument("--A", required=True, help="matrix text file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_nsp_check)

    p = sub.add_parser("bounds", help="print the five measurement-count formulas as CSV")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--width", type=float, default=None, help="w(D S) for the width-form row")
    p.add_argument("--m", type=int, default=None, help="row count for prob_at_m")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("recover", help="solve min ||x||_1 s.t. ||y - B x||_2 <= eps")
    p.add_argument("--B", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--D", default=None)
    p.add_argument("--x0", default=None)
    p.set_defaults(fn=_cmd_recover)

    for name, experiment in (
        ("width", "width_compare"),
        ("phase", "phase_transition"),
        ("preserve", "preserve_nsp"),
    ):
        p = sub.add_parser(name, help=f"run the {name} experiment from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress CSV echo to stdout")
        p.set_defaults(fn=_cmd_experiment, experiment=experiment)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NsplabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
