#!/usr/bin/env python3
"""Bound ladder: LP vs. first-order moment SDPs vs. exact enumeration.

Two experiments, printed as tables:

1. The worked 3-2-2-2 network at several radii.  At small radius the
   tautology-tightened SDP certifies robustness (bound near +3, the exact
   optimum) while the standard first-order SDP and the LP are stuck at -1
   (every first-level neuron is constant there; their rows hold but do not
   pin its sign).  At large radius a real adversarial pattern exists and every
   bound collapses onto the exact optimum -1.

2. Random ternary networks (four levels, widths <= 6), where each row checks
   the ordering

       tau_lp  <=  tau_sdp1_tight,   tau_sdp1  <=  tau_sdp1_tight
                                     tau_sdp1_tight  <=  tau_exact

   together with the rigorously certified values (the floating-point dual
   certificates shrunk by their residual budgets).  On most random tiny
   instances every relaxation is tight; the showcase above is where the
   encodings genuinely separate.

Usage:
    python3 scripts/compare_bounds.py [--n 12] [--seed 7] [--norm linf|l2]
"""

import argparse
import sys
import time

import numpy as np

from bnncert import (
    FoldedBnn,
    PerturbationRegion,
    SolveOptions,
    assemble_moment_sdp,
    encode_lp,
    encode_standard,
    encode_tightened,
    exact_verify,
    objective_targeted,
    rigorous_lower_bound,
    solve_conic,
    solve_lp,
    to_conic,
)

OPTS = SolveOptions(tol=1e-7, max_iter=200000)
# the small-radius tightened solve converges slowly; 1e-5 keeps the showcase
# under ten seconds while the certified bound still clears zero by a mile
SHOWCASE_OPTS = SolveOptions(tol=1e-5, max_iter=200000)


def worked_net() -> FoldedBnn:
    return FoldedBnn(
        widths=(3, 2, 2, 2),
        weights=(
            np.array([[-1, 1, 1], [-1, -1, 1]]),
            np.array([[-1, -1], [-1, 1]]),
            np.array([[-1, 1], [-1, -1]]),
        ),
        biases=(
            np.array([1.5, 2.0]),
            np.array([1.0, -0.5]),
            np.array([-2.0, -1.0]),
        ),
    )


def random_net(rng: np.random.Generator, widths) -> FoldedBnn:
    """Ternary weights, no all-zero hidden rows, hidden |bias| <= 0.3 * fan-in."""
    weights, biases = [], []
    for i in range(1, len(widths)):
        w = rng.choice([-1, 0, 1], size=(widths[i], widths[i - 1]), p=[0.35, 0.3, 0.35])
        if i < len(widths) - 1:
            for r in range(w.shape[0]):
                if not w[r].any():
                    w[r, rng.integers(w.shape[1])] = rng.choice([-1, 1])
            nv = np.abs(w).sum(axis=1)
            b = nv * rng.uniform(-0.3, 0.3, size=widths[i])
        else:
            b = rng.uniform(-1, 1, size=widths[i])
        weights.append(w)
        biases.append(b)
    return FoldedBnn(widths=tuple(widths), weights=tuple(weights), biases=tuple(biases))


def sample_instance(rng: np.random.Generator, norm: str):
    widths = (
        int(rng.integers(2, 7)),
        int(rng.integers(2, 6)),
        int(rng.integers(2, 5)),
        int(rng.integers(2, 4)),
    )
    net = random_net(rng, widths)
    n_out = widths[-1]
    label = int(rng.integers(1, n_out + 1))
    target = 1 + (label % n_out)
    center = rng.uniform(-0.2, 0.2, net.input_dim)
    if norm == "linf":
        region = PerturbationRegion.linf(center, float(rng.uniform(0.6, 1.0)))
    else:
        # wide enough that no first-level neuron is forced, so the l2 ball
        # constraint actually participates in every encoding
        W = net.weights[0]
        ratio = max(float(np.abs(r).sum() / np.linalg.norm(r)) for r in W)
        region = PerturbationRegion.l2(center, 0.55 * ratio)
    objective = objective_targeted(net, label, target)
    return net, region, label, target, objective


def ladder(net, region, label, target, objective, opts):
    """(tau_lp, tau_sdp1, tau_tight, rig_tight, tau_exact)."""
    lp = encode_lp(net, region, objective, true_label=label, target=target)
    tau_lp = solve_lp(lp, opts).primal_objective
    std = encode_standard(net, region, objective, true_label=label, target=target)
    tau_std = solve_conic(to_conic(assemble_moment_sdp(std)), opts).primal_objective
    tight = encode_tightened(net, region, objective, true_label=label, target=target)
    msdp = assemble_moment_sdp(tight)
    r_tight = solve_conic(to_conic(msdp), opts)
    rig = rigorous_lower_bound(r_tight, tight, msdp.cliques).value
    tau_exact = exact_verify(net, region, objective).value
    return tau_lp, tau_std, r_tight.primal_objective, rig, tau_exact


def fmt(v, width=9):
    return f"{v:>{width}.4f}"


def showcase() -> None:
    net = worked_net()
    x0 = np.array([0.0, 0.5, 0.0])
    objective = objective_targeted(net, 2, 1)
    print("worked 3-2-2-2 network, reference input (0, 0.5, 0), target class 1")
    print(f"{'eps':>5} {'tau_lp':>9} {'tau_sdp1':>9} {'tight':>9} {'rig_tight':>10} {'exact':>9}  verdict")
    for eps in (0.2, 0.7, 1.0):
        region = PerturbationRegion.linf(x0, eps)
        tau_lp, tau_std, tau_tight, rig, tau_exact = ladder(
            net, region, 2, 1, objective, SHOWCASE_OPTS
        )
        verdict = "robust (certified)" if rig > 0 else "not certified"
        print(
            f"{eps:>5.2f} {fmt(tau_lp)} {fmt(tau_std)} {fmt(tau_tight)} "
            f"{fmt(rig, 10)} {fmt(tau_exact)}  {verdict}"
        )
    print()


def random_table(n: int, seed: int, norm: str) -> int:
    rng = np.random.default_rng(seed)
    print(f"random ternary networks ({norm}, seed {seed})")
    print(
        f"{'widths':>14} {'tau_lp':>9} {'tau_sdp1':>9} {'tight':>9} "
        f"{'rig_tight':>10} {'exact':>9}  order"
    )
    violations = 0
    for _ in range(n):
        net, region, label, target, objective = sample_instance(rng, norm)
        tau_lp, tau_std, tau_tight, rig, tau_exact = ladder(
            net, region, label, target, objective, OPTS
        )
        tol = 1e-5
        ordered = (
            tau_lp - tol <= tau_tight
            and tau_std <= tau_tight + tol
            and tau_tight <= tau_exact + tol
            and rig <= tau_exact
        )
        violations += not ordered
        print(
            f"{str(net.widths):>14} {fmt(tau_lp)} {fmt(tau_std)} {fmt(tau_tight)} "
            f"{fmt(rig, 10)} {fmt(tau_exact)}  {'ok' if ordered else 'VIOLATED'}"
        )
    return violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=12, help="number of random instances")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--norm", choices=("linf", "l2"), default="linf")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    showcase()
    violations = random_table(args.n, args.seed, args.norm)
    dt = time.monotonic() - t0
    print(f"\n{args.n} random instances, {dt:.1f}s total, {violations} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
