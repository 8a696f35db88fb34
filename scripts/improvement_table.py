#!/usr/bin/env python3
"""How much of the LP-to-truth gap the moment SDPs recover, by radius.

For a grid of perturbation radii, sample random ternary networks and report
the average relative improvement of each SDP bound over the LP bound,

    improvement = (tau_sdp - tau_lp) / (ub - tau_lp),

where ub is a sampled upper bound on the exact optimum (100% would mean the
relaxation provably closed the whole estimated gap).

The average runs over instances with a meaningful estimated gap
(ub - tau_lp > 0.05): when the LP is already tight the metric is 0/0 and
solver noise would dominate.  The skip count is reported.

At this scale the typical result is ~0%: on tiny random networks the
first-order relaxations track the LP almost everywhere, and the instances
with a real gap keep it under every first-order bound.  The separation in
favor of the tightened encoding lives on structured small-radius instances
(see scripts/compare_bounds.py, where it certifies the worked network at a
radius where the LP and the standard SDP stop at -1).

Usage:
    python3 scripts/improvement_table.py [--n 20] [--seed 3] [--samples 2000]
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
    objective_targeted,
    relative_improvement,
    sample_logits,
    solve_conic,
    solve_lp,
    to_conic,
)

OPTS = SolveOptions(tol=1e-7, max_iter=200000)
RADII = (0.5, 1.0, 1.5)
MIN_GAP = 0.05


def random_net(rng: np.random.Generator) -> FoldedBnn:
    widths = (
        int(rng.integers(3, 7)),
        int(rng.integers(3, 6)),
        int(rng.integers(2, 5)),
        int(rng.integers(2, 4)),
    )
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20, help="instances per radius")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--samples", type=int, default=2000, help="upper-bound samples")
    args = ap.parse_args(argv)

    print(
        f"{'radius':>7} {'drawn':>6} {'no-gap':>7} "
        f"{'used':>5} {'mean gap':>9} {'sdp1 %':>8} {'tight %':>8}"
    )
    t0 = time.monotonic()
    for eps in RADII:
        rng = np.random.default_rng(args.seed)
        gains_std, gains_tight, gaps = [], [], []
        no_gap = 0
        for _ in range(args.n):
            net = random_net(rng)
            n_out = net.widths[-1]
            label = int(rng.integers(1, n_out + 1))
            target = 1 + (label % n_out)
            center = rng.uniform(-0.2, 0.2, net.input_dim)
            region = PerturbationRegion.linf(center, eps)
            objective = objective_targeted(net, label, target)

            lp = encode_lp(net, region, objective)
            tau_lp = solve_lp(lp, OPTS).primal_objective
            _, logits, _ = sample_logits(net, region, args.samples, args.seed)
            ub = float(np.min(logits[:, label - 1] - logits[:, target - 1]))
            if not ub - tau_lp > MIN_GAP:
                no_gap += 1
                continue

            std = encode_standard(net, region, objective)
            tau_std = solve_conic(
                to_conic(assemble_moment_sdp(std)), OPTS
            ).primal_objective
            tight = encode_tightened(net, region, objective)
            tau_tight = solve_conic(
                to_conic(assemble_moment_sdp(tight)), OPTS
            ).primal_objective

            gaps.append(ub - tau_lp)
            gains_std.append(relative_improvement(tau_std, tau_lp, ub))
            gains_tight.append(relative_improvement(tau_tight, tau_lp, ub))

        def pct(vals, width=8):
            return (
                f"{100 * np.mean(vals):>{width}.1f}" if vals else f"{'n/a':>{width}}"
            )

        mean_gap = f"{np.mean(gaps):>9.3f}" if gaps else f"{'n/a':>9}"
        print(
            f"{eps:>7.2f} {args.n:>6} {no_gap:>7} "
            f"{len(gaps):>5} {mean_gap} {pct(gains_std)} {pct(gains_tight)}"
        )
    print(f"\ndone in {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
