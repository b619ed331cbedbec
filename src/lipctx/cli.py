"""Batch command-line front end.

Subcommands map one-to-one onto the library's public surfaces:

  certify     run the certification battery on a model file
  w1          exact or critic-estimated Wasserstein-1 between two measures
  lattice     min/max-combine two models, optionally self-check
  separate    build a two-point separator and verify its anchor values
  rsw-fit     finite-sample lattice interpolation from a samples file
  make-model  seeded random clamped model generator for harness use

Exit codes: 0 success with all checks passing, 1 check failure (reports
are still written), 2 usage or I/O error. Errors go to standard error
with the machine-parsable prefix ``lipctx-error:``. All randomness is
seeded through ``--seed`` (default 0).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .certify import certify_model, random_clamped_model, sample_in_ball, spawn_rngs
from .constructions import lattice_combine, rsw_interpolate, separator
from .critic import TrainConfig, train_critic
from .errors import LipctxError
from .measure import new_empirical, w1_exact
from .transformer import evaluate

ERROR_PREFIX = "lipctx-error:"


class _UsageError(LipctxError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 2
        raise _UsageError(message)


def _tol_pair(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    if not name or not value:
        raise _UsageError(f"bad --tol override {text!r}, expected NAME=VALUE")
    return name, float(value)


def _vector(text: str) -> np.ndarray:
    try:
        return np.asarray(json.loads(text), dtype=np.float64).reshape(-1)
    except (json.JSONDecodeError, ValueError) as exc:
        raise _UsageError(f"bad vector literal {text!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="lipctx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the certification battery")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--measures", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--tol", action="append", type=_tol_pair, default=[],
                   metavar="NAME=VALUE", help="override a check bound")

    p = sub.add_parser("w1", help="Wasserstein-1 between two measure files")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--method", choices=("exact", "critic"), default="exact")
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lattice", help="min/max-combine two model files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--op", choices=("min", "max"), required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("separate", help="two-point separator construction")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--x", required=True, help="query anchor, JSON list")
    p.add_argument("--xp", required=True, help="second query anchor, JSON list")
    p.add_argument("--target-a", type=float, required=True)
    p.add_argument("--target-b", type=float, required=True)
    p.add_argument("--lipschitz-c", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--iterations", type=int, default=1500)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("rsw-fit", help="finite-sample lattice interpolation")
    p.add_argument("--samples-file", required=True)
    p.add_argument("--lipschitz-c", type=float, default=1.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("make-model", help="seeded random clamped model")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------
def _train_config(args, width: int = 8, depth: int = 1) -> TrainConfig:
    """Critic schedule from the ``--iterations``, ``--step`` and ``--seed`` flags."""
    return TrainConfig(
        iterations=args.iterations, step_size=args.step, seed=args.seed,
        width=width, depth=depth,
    )


def _cmd_certify(args) -> int:
    model = serialize.model_from_json(serialize.load_file(args.model))
    report = certify_model(
        model,
        n_measures=args.measures,
        n_pairs=args.pairs,
        seed=args.seed,
        context_pairs=max(10, args.pairs // 10),
        tolerances=dict(args.tol) or None,
    )
    if args.out:
        serialize.dump_file(serialize.report_to_json(report), args.out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: stat={check.stat:.6g} bound={check.bound:.6g} {status}")
    return 0 if report.passed else 1


def _cmd_w1(args) -> int:
    mu = serialize.measure_from_json(serialize.load_file(args.mu))
    nu = serialize.measure_from_json(serialize.load_file(args.nu))
    if args.method == "exact":
        value = w1_exact(mu, nu)
    else:
        _, value = train_critic(mu, nu, _train_config(args, args.width, args.depth))
    print(repr(float(value)))
    return 0


def _cmd_lattice(args) -> int:
    model_a = serialize.model_from_json(serialize.load_file(args.a))
    model_b = serialize.model_from_json(serialize.load_file(args.b))
    combined = lattice_combine(model_a, model_b, args.op)
    if args.out:
        serialize.dump_file(serialize.model_to_json(combined), args.out)
    if not args.check:
        return 0
    op = min if args.op == "min" else max
    worst = 0.0
    dom = model_a.input_domain
    for rng in spawn_rngs(args.seed, args.samples):
        mu = new_empirical(sample_in_ball(rng, dom, int(rng.integers(1, 9))))
        x = sample_in_ball(rng, dom, 1)[0]
        got = evaluate(combined, mu, x)
        want = op(evaluate(model_a, mu, x), evaluate(model_b, mu, x))
        worst = max(worst, abs(got - want))
    print(f"lattice-check: worst |combined - {args.op}| = {worst:.3g} over "
          f"{args.samples} samples")
    return 0 if worst <= 1e-9 else 1


def _cmd_separate(args) -> int:
    mu = serialize.measure_from_json(serialize.load_file(args.mu))
    nu = serialize.measure_from_json(serialize.load_file(args.nu))
    x, xp = _vector(args.x), _vector(args.xp)
    model = separator(
        mu, x, nu, xp, args.target_a, args.target_b, args.lipschitz_c,
        eps=args.eps, train_cfg=_train_config(args),
    )
    if args.out:
        serialize.dump_file(serialize.model_to_json(model), args.out)
    err_a = abs(evaluate(model, mu, x) - args.target_a)
    err_b = abs(evaluate(model, nu, xp) - args.target_b)
    print(f"separate: anchor errors {err_a:.3g}, {err_b:.3g}")
    return 0 if max(err_a, err_b) <= 1e-9 else 1


def _cmd_rsw_fit(args) -> int:
    raw = serialize.load_file(args.samples_file)
    entries = raw["samples"] if isinstance(raw, dict) else raw
    samples = [
        (
            serialize.measure_from_json(entry["mu"]),
            np.asarray(entry["x"], dtype=np.float64),
            float(entry["target"]),
        )
        for entry in entries
    ]
    model = rsw_interpolate(samples, args.lipschitz_c, train_cfg=_train_config(args))
    if args.out:
        serialize.dump_file(serialize.model_to_json(model), args.out)
    if not args.check:
        return 0
    worst = max(abs(evaluate(model, m, q) - t) for m, q, t in samples)
    print(f"rsw-fit: worst target error {worst:.3g} over {len(samples)} samples")
    return 0 if worst <= 1e-6 else 1


def _cmd_make_model(args) -> int:
    model = random_clamped_model(
        args.dim, args.width, args.blocks, args.seed, radius=args.radius
    )
    serialize.dump_file(serialize.model_to_json(model), args.out)
    print(f"make-model: wrote {args.out} (hash {serialize.model_hash(model)[:16]})")
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "w1": _cmd_w1,
    "lattice": _cmd_lattice,
    "separate": _cmd_separate,
    "rsw-fit": _cmd_rsw_fit,
    "make-model": _cmd_make_model,
}


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, LipctxError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
