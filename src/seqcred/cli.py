"""Command-line entry points.

Subcommands:

* ``simulate``          draw one data set from the sequence model
* ``posterior``         index weights and posterior mean for saved data
* ``ball``              default-centered credible ball for saved data
* ``classify``          oracle / surrogate / EBR / PT facts about a signal
* ``experiment``        run a Monte-Carlo experiment from a config file
* ``verify-constants``  check the variance-sequence conditions and bounds

Exit codes: 0 on success, 1 on usage or validation errors, 2 when an
experiment run with ``--check`` fails its acceptance summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .credible import default_center, make_confidence_ball, radius_at_level
from .diagnostics import ball_volume_bound
from .model import ModelConfig, ObservedData, Signal, generate_signal, make_model, simulate
from .oracle import (
    ebr_check,
    oracle,
    pt_check,
    pt_to_ebr_tau,
    surrogate_oracle,
    verify_sigma_conditions,
)
from .posterior import DdmParams, eb_index, make_posterior, posterior_mean, validate_params
from .experiments import ExperimentSpec, default_spec, run_experiment, EXPERIMENT_KINDS

__all__ = ["main", "dispatch"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors; --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _observed_to_dict(data: ObservedData) -> dict:
    return {
        "x": data.x.tolist(),
        "epsilon": data.model.epsilon,
        "p": data.model.p,
        "n_trunc": data.model.n_trunc,
        "seed": data.seed,
    }


def _observed_from_file(path: str) -> ObservedData:
    d = json.loads(Path(path).read_text())
    model = make_model(d["epsilon"], d["p"], d["n_trunc"])
    return ObservedData(x=np.asarray(d["x"], dtype=float), model=model, seed=d.get("seed"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqcred", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"seqcred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="draw one data set")
    sim.add_argument("--eps", type=float, required=True)
    sim.add_argument("--p", type=float, default=0.0)
    sim.add_argument("--n", type=int, default=1024)
    sim.add_argument("--kind", default="zero", help="signal kind")
    sim.add_argument("--params", default="{}", help="signal params as JSON")
    sim.add_argument("--signal-seed", type=int, default=None)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", default=None)

    post = sub.add_parser("posterior", help="index weights and posterior mean")
    post.add_argument("--data", required=True, help="JSON file written by simulate")
    post.add_argument("--K", type=float, default=2.0)
    post.add_argument("--alpha", type=float, default=0.04)
    post.add_argument("--i-max", type=int, default=None)
    post.add_argument(
        "--variant",
        default="mixture",
        choices=("mixture", "eb-index", "full-bayes-shrunk"),
    )
    post.add_argument("--out", default=None)

    ball = sub.add_parser("ball", help="default-centered credible ball")
    ball.add_argument("--data", required=True)
    ball.add_argument("--K", type=float, default=2.0)
    ball.add_argument("--alpha", type=float, default=0.04)
    ball.add_argument("--kappa", type=float, default=0.5)
    ball.add_argument("--mc", type=int, default=2000)
    ball.add_argument("--inflation", type=float, default=1.0, help="radius multiplier M")
    ball.add_argument("--seed", type=int, required=True)
    ball.add_argument("--out", default=None)

    cls = sub.add_parser("classify", help="oracle / EBR / PT facts for a signal")
    cls.add_argument("--signal", required=True, help="JSON file holding a signal")
    cls.add_argument("--eps", type=float, required=True)
    cls.add_argument("--p", type=float, default=0.0)
    cls.add_argument("--n", type=int, default=1024)
    cls.add_argument("--tau", type=float, default=2.0, help="EBR threshold")
    cls.add_argument("--L0", type=float, default=None)
    cls.add_argument("--N0", type=int, default=None)
    cls.add_argument("--rho0", type=float, default=None)
    cls.add_argument("--out", default=None)

    exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    exp.add_argument("--config", default=None, help="spec JSON; omit to use --kind defaults")
    exp.add_argument("--kind", default=None, choices=EXPERIMENT_KINDS)
    exp.add_argument("--seed", type=int, default=None, help="override master seed")
    exp.add_argument("--out", default=None, help="override output directory")
    exp.add_argument("--threads", type=int, default=None, help="worker processes (or DDM_THREADS)")
    exp.add_argument("--check", action="store_true", help="exit 2 unless the acceptance summary holds")

    ver = sub.add_parser("verify-constants", help="variance-sequence and volume checks")
    ver.add_argument("--p", type=float, default=0.0)
    ver.add_argument("--n-max", type=int, default=2000)
    ver.add_argument("--rho", type=float, default=2.0)
    ver.add_argument("--gamma", type=float, default=0.5)
    ver.add_argument("--tau0", type=float, default=2.0)
    ver.add_argument("--K", type=float, default=2.0)
    ver.add_argument("--alpha", type=float, default=0.04)
    ver.add_argument("--out", default=None)

    return parser


def _cmd_simulate(args) -> int:
    params = json.loads(args.params)
    model = make_model(args.eps, args.p, args.n)
    signal = generate_signal(args.kind, params, n_trunc=args.n, seed=args.signal_seed)
    data = simulate(model, signal, args.seed)
    payload = _observed_to_dict(data)
    payload["signal"] = signal.to_dict()
    _emit(payload, args.out)
    return 0


def _cmd_posterior(args) -> int:
    data = _observed_from_file(args.data)
    params = DdmParams(K=args.K, alpha=args.alpha)
    posterior = make_posterior(data, params, i_max=args.i_max, variant=args.variant)
    payload = {
        "variant": args.variant,
        "i_max": posterior.weights.i_max,
        "eb_index": eb_index(posterior.weights),
        "weights": posterior.weights.w.tolist(),
        "posterior_mean": posterior.mean().tolist(),
        "K": args.K,
        "alpha": args.alpha,
    }
    _emit(payload, args.out)
    return 0


def _cmd_ball(args) -> int:
    data = _observed_from_file(args.data)
    params = DdmParams(K=args.K, alpha=args.alpha)
    posterior = make_posterior(data, params)
    ss = np.random.SeedSequence(args.seed)
    dc = default_center(posterior, mc_samples=args.mc, seed=np.random.default_rng(ss.spawn(1)[0]))
    est = radius_at_level(
        posterior, dc.center, args.kappa, mc_samples=args.mc, seed=np.random.default_rng(ss.spawn(1)[0])
    )
    ball = make_confidence_ball(dc.center, est, args.inflation)
    payload = ball.to_dict()
    payload.update(
        {
            "radius_std_error": est.std_error,
            "center_candidate": dc.candidate,
            "center_verified": dc.verified,
            "kappa": args.kappa,
            "mc_samples": args.mc,
        }
    )
    _emit(payload, args.out)
    return 0


def _cmd_classify(args) -> int:
    signal = Signal.from_json(Path(args.signal).read_text())
    model = make_model(args.eps, args.p, args.n)
    orc = oracle(signal, model)
    surr = surrogate_oracle(signal, model)
    ebr = ebr_check(signal, model, args.tau)
    payload = {
        "oracle": {"i_star": orc.i_star, "rate_sq": orc.rate_sq},
        "surrogate": {"i_bar": surr.i_bar, "rate_sq": surr.surr_rate_sq, "sigma_sum": surr.sigma_sum},
        "ebr": {"member": ebr.member, "ratio": ebr.ratio, "tau": ebr.tau},
    }
    pt_args = (args.L0, args.N0, args.rho0)
    if all(v is not None for v in pt_args):
        payload["pt"] = {
            "member": pt_check(signal, args.L0, args.N0, args.rho0),
            "implied_ebr_tau": pt_to_ebr_tau(args.L0, args.N0, args.rho0, args.p),
        }
    elif any(v is not None for v in pt_args):
        print("classify: --L0, --N0 and --rho0 must be given together", file=sys.stderr)
        return 1
    _emit(payload, args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.config is not None:
        spec = ExperimentSpec.from_json(Path(args.config).read_text())
    elif args.kind is not None:
        spec = default_spec(args.kind)
    else:
        print("experiment: need --config or --kind", file=sys.stderr)
        return 1
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["workers"] = args.threads
    if overrides:
        spec = ExperimentSpec.from_dict({**spec.to_dict(), **overrides})
    report = run_experiment(spec)
    print(json.dumps({"summary": report.summary, "runtime": report.runtime}, indent=2, sort_keys=True, default=str))
    if args.check and not report.summary.get("acceptance_ok", False):
        return 2
    return 0


def _cmd_verify_constants(args) -> int:
    model = make_model(1.0, args.p, max(2, args.n_max))
    cond = verify_sigma_conditions(model, args.n_max, rho=args.rho, gamma=args.gamma, tau0=args.tau0)
    diag = validate_params(args.K, args.alpha, args.p)
    volume_ok = True
    for k in (1, 2, 5, 10, 50, 200):
        for r in (0.1, 1.0, 10.0):
            v = ball_volume_bound(k, r)
            if v.log_bound < v.log_exact:
                volume_ok = False
    payload = {
        "sigma_conditions": {
            "passed": cond.passed,
            "n_max": cond.n_max,
            "violations": cond.violations,
            "p": args.p,
        },
        "params": {
            "K": diag.K,
            "alpha": diag.alpha,
            "a_k": diag.a_k,
            "upper_regime": diag.upper_regime,
            "lower_regime": diag.lower_regime,
            "penalty": diag.penalty,
            "delta_sb": diag.delta_sb,
        },
        "volume_bound_ok": volume_ok,
    }
    _emit(payload, args.out)
    return 0 if cond.passed and volume_ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "posterior": _cmd_posterior,
    "ball": _cmd_ball,
    "classify": _cmd_classify,
    "experiment": _cmd_experiment,
    "verify-constants": _cmd_verify_constants,
}


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run the matching subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"seqcred {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    sys.exit(main())
