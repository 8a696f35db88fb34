"""End-to-end command line checks on the worked toy network."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bnncert.cli as cli
import bnncert.oracle as oracle
from bnncert.cli import main
from bnncert.encode import PerturbationRegion, objective_targeted
from bnncert.model import FoldedBnn, fold_batchnorm, forward, load_model, stabilize
from bnncert.oracle import exact_verify, sample_logits, sample_region
from bnncert.sdp import read_sdpa
from bnncert.solver import SolveOptions

from conftest import EXAMPLE1_JSON, EXAMPLE1_X0, in_region, make_example1, random_net


def run(example1_files, *extra):
    model, inputs = example1_files
    return main(["verify", "--model", str(model), "--input", str(inputs), *extra])


def run_json(example1_files, tmp_path, *extra):
    out = tmp_path / "report.json"
    rc = run(example1_files, "--json", str(out), *extra)
    return rc, json.loads(out.read_text())


def test_eps_zero_uses_forward_margins(example1_files, tmp_path, capsys):
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0")
    assert rc == 0
    assert rep["verdict"] == "robust"
    assert rep["true_label"] == 2
    (target,) = rep["targets"]
    assert target["method"] == "exact-forward"
    assert target["target"] == 1
    assert target["lower_bound"] == 3.0
    assert target["status"] == "robust"
    assert "verdict: robust" in capsys.readouterr().out


def test_eps_zero_wrong_label_is_falsified(example1_files, tmp_path):
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0", "--label", "1")
    assert rc == 1
    assert rep["verdict"] == "falsified"
    # the reference input itself is the counterexample
    assert rep["counterexample"] == [0.0, 0.5, 0.0]


def test_oracle_l2_certifies_small_ball(example1_files, tmp_path):
    rc, rep = run_json(
        example1_files, tmp_path, "--eps", "0.2", "--norm", "l2", "--method", "oracle"
    )
    assert rc == 0
    assert rep["verdict"] == "robust"
    (target,) = rep["targets"]
    assert target["lower_bound"] == 3.0
    assert target["solver_status"] == "exact"


def test_oracle_confirms_attack_witness(example1_files, tmp_path):
    # at radius 0.7 the seeded sampler misses the attack; the exact
    # minimizer supplies the counterexample instead
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.7", "--method", "oracle")
    assert rc == 1
    assert rep["verdict"] == "falsified"
    (target,) = rep["targets"]
    assert target["lower_bound"] == -1.0
    assert target["status"] == "falsified"
    cex = rep["counterexample"]
    assert cex is not None
    net = stabilize(fold_batchnorm(load_model(example1_files[0])))
    assert forward(net, cex).label != 2
    assert max(abs(c - x) for c, x in zip(cex, [0.0, 0.5, 0.0])) <= 0.7 + 1e-12


def test_oracle_l2_witness_falsifies(example1_files, tmp_path):
    """At l2 radius 1.2 the 512-point attack misses the label change, and
    the minimizing cell's nearest point to the center, (2/3, -1/6, -2/3),
    lies on a layer-1 hyperplane, where `forward` takes the other sign.
    The oracle's witness lies strictly inside the cell, so it falsifies."""
    rc, rep = run_json(
        example1_files, tmp_path, "--eps", "1.2", "--norm", "l2", "--method", "oracle"
    )
    assert rc == 1
    assert rep["verdict"] == "falsified"
    (target,) = rep["targets"]
    assert (target["lower_bound"], target["status"]) == (-1.0, "falsified")
    cex = np.array(rep["counterexample"])
    net = stabilize(fold_batchnorm(load_model(example1_files[0])))
    assert forward(net, cex).label != 2
    assert np.linalg.norm(cex - EXAMPLE1_X0) <= 1.2


def test_lp_bound_is_sound_but_loose(example1_files, tmp_path):
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.7", "--method", "lp")
    assert rc == 2
    assert rep["verdict"] == "unknown"
    (target,) = rep["targets"]
    assert target["status"] == "unknown"
    assert target["solver_status"] == "optimal"
    assert target["lower_bound"] == pytest.approx(-1.0, abs=1e-4)


@pytest.mark.parametrize(
    "method, size",
    [
        ("sdp1-tight", {"psd_orders": [8], "columns": 31, "rows": 19}),
        ("sdp1", {"psd_orders": [8], "columns": 31, "rows": 7}),
        ("lp", {"psd_orders": [], "columns": 7, "rows": 22}),
        ("oracle", None),
        ("sample-ub", None),
    ],
)
def test_metrics_give_the_relaxation_size(example1_files, tmp_path, method, size):
    _, rep = run_json(example1_files, tmp_path, "--eps", "0.2", "--method", method, "--metrics")
    assert rep["metrics"]["relaxation"] == size
    # no target is bounded when the attack falsifies the query
    _, rep = run_json(example1_files, tmp_path, "--eps", "1.0", "--method", method, "--metrics")
    assert rep["targets"] == [] and rep["metrics"]["relaxation"] is None


def test_in_process_calls_parse_their_own_argv(example1_files, tmp_path):
    """Two `main` calls in one process: the second sees none of the first
    call's options."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(example1_files, "--eps", "0", "--label", "1", "--method", "sample-ub",
               "--metrics", "--json", str(first)) == 1
    assert run(example1_files, "--eps", "0.2", "--method", "oracle", "--json", str(second)) == 0
    a, b = json.loads(first.read_text()), json.loads(second.read_text())
    assert (a["true_label"], a["method"], a["eps"]) == (1, "sample-ub", 0.0)
    assert (b["true_label"], b["method"], b["eps"]) == (2, "oracle", 0.2)
    assert a["metrics"] is not None and b["metrics"] is None


def test_sampling_finds_counterexample_before_solving(example1_files, tmp_path):
    # tau_exact = -1 at radius 1; the relaxation must never report robust
    rc, rep = run_json(
        example1_files, tmp_path, "--eps", "1.0", "--method", "sdp1-tight"
    )
    assert rc == 1
    assert rep["verdict"] == "falsified"
    assert rep["targets"] == []
    net = stabilize(fold_batchnorm(load_model(example1_files[0])))
    assert forward(net, rep["counterexample"]).label != 2


def test_tightened_certifies_where_lp_is_loose(example1_files, tmp_path):
    # radius 0.2 pins every layer-1 neuron to +1: the LP's envelopes still
    # hold there, but its sound bound stops at -1 (exit 2), while the
    # tightened relaxation recovers the margin of +3
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.2", "--method", "lp")
    assert rc == 2
    (target,) = rep["targets"]
    assert target["lower_bound"] == pytest.approx(-1.0, abs=1e-4)
    rc, rep = run_json(
        example1_files,
        tmp_path,
        "--eps",
        "0.2",
        "--method",
        "sdp1-tight",
        "--tol",
        "1e-4",
        "--max-iter",
        "20000",
    )
    assert rc == 0
    assert rep["verdict"] == "robust"
    (target,) = rep["targets"]
    assert target["lower_bound"] > 0


def test_metrics_never_turn_a_decided_query_into_an_error(example1_files, tmp_path):
    # the README example: --metrics adds the LP comparison and leaves the
    # verdict and the bounds alone
    readme = ("--eps", "0.2", "--method", "sdp1-tight", "--tol", "1e-4", "--max-iter", "20000")
    rc_plain, plain = run_json(example1_files, tmp_path, *readme)
    rc, rep = run_json(example1_files, tmp_path, *readme, "--metrics")
    assert rc == rc_plain == 0
    assert rep["verdict"] == plain["verdict"] == "robust"
    for rep_t in (rep["targets"], plain["targets"]):
        for target in rep_t:
            target.pop("wall_time")
    assert rep["targets"] == plain["targets"]
    (imp,) = rep["metrics"]["improvement"].values()
    lower = rep["targets"][0]["lower_bound"]
    assert imp["lp_bound"] == pytest.approx(-1.0, abs=1e-4)
    assert imp["sample_upper"] >= lower
    assert imp["relative_improvement"] == (lower - imp["lp_bound"]) / (
        imp["sample_upper"] - imp["lp_bound"]
    )


def test_standard_relaxation_weaker_than_tightened(example1_files, tmp_path):
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.2", "--method", "sdp1")
    assert rc == 2
    (target,) = rep["targets"]
    assert target["lower_bound"] == pytest.approx(-1.0, abs=1e-4)


def test_sample_ub_never_claims_robust(example1_files, tmp_path):
    rc, rep = run_json(
        example1_files, tmp_path, "--eps", "0.2", "--norm", "l2", "--method", "sample-ub"
    )
    assert rc == 2
    (target,) = rep["targets"]
    assert target["lower_bound"] is None
    assert target["approximate"] == 3.0
    assert target["solver_status"] == "sampling"


def test_pixel_scale_divides_radius(example1_files, tmp_path):
    rc, rep = run_json(
        example1_files,
        tmp_path,
        "--eps",
        "25.5",
        "--pixel-scale",
        "--method",
        "oracle",
    )
    assert rc == 0
    assert rep["eps"] == pytest.approx(0.2)
    assert rep["pixel_scale"] is True


def test_json_report_is_deterministic(example1_files, tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = run(
            example1_files,
            "--eps",
            "0.7",
            "--method",
            "sdp1-tight",
            "--metrics",
            "--json",
            str(out),
        )
        assert rc == 2
        reports.append(json.loads(out.read_text()))
    for rep in reports:
        for target in rep["targets"]:
            target.pop("wall_time")
    assert reports[0] == reports[1]
    imp = reports[0]["metrics"]["improvement"]["1"]
    assert imp["lp_bound"] == pytest.approx(-1.0, abs=1e-5)
    assert imp["sample_upper"] == 3.0


def test_index_selects_input_row(example1_files, tmp_path):
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0", "--index", "2")
    assert rc == 0
    assert rep["input_index"] == 2
    assert rep["input_values"] == [0.1, -0.3, 0.2]


def test_bad_arguments_exit_three(example1_files, tmp_path, capsys):
    model, inputs = example1_files
    cases = (
        ["verify", "--model", str(tmp_path / "missing.json"), "--input", str(inputs), "--eps", "0"],
        ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0", "--index", "9"],
        ["verify", "--model", str(model), "--input", str(inputs), "--eps", "-1"],
        ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0", "--label", "5"],
    )
    for argv in cases:
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_malformed_command_lines_exit_three(example1_files, capsys):
    """argparse's own exit code 2 would read as "inconclusive"."""
    model, inputs = example1_files
    base = ["verify", "--model", str(model), "--input", str(inputs)]
    for argv in (base + ["--eps", "abc"], base + ["--eps", "0.2", "--method", "foo"], base):
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err
    assert main(["verify", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def _with_first_layer(doc, **fields):
    doc["layers"][0].update(fields)
    return doc


@pytest.mark.parametrize(
    "malform",
    [
        lambda doc: {**doc, "layers": [1, 2, 3]},
        lambda doc: {**doc, "layers": 5},
        lambda doc: _with_first_layer(doc, bn=[1, 2]),
        lambda doc: {**doc, "bn_epsilon": [1]},
        lambda doc: {**doc, "widths": [3, 2.7, 2, 2]},
        lambda doc: {**doc, "widths": [3, "2", 2, 2]},
        lambda doc: {**doc, "widths": [3, True, 2, 2]},
        lambda doc: _with_first_layer(doc, bias=["1.5", "2.0"]),
        lambda doc: {**doc, "bn_epsilon": "1e-5"},
        lambda doc: _with_first_layer(doc, weights=[[False, True, True], [False, False, True]]),
        lambda doc: _with_first_layer(
            doc, bn={"gamma": [1, 1], "beta": [0, 0], "mu": ["0", 0], "var": [1, 1]}
        ),
    ],
    ids=["layers-of-numbers", "layers-a-number", "bn-a-list", "bn-epsilon-a-list",
         "fractional-width", "string-width", "bool-width", "string-bias",
         "string-bn-epsilon", "bool-weights", "string-bn-mu"],
)
def test_malformed_model_file_exits_three(example1_files, tmp_path, capsys, malform):
    _, inputs = example1_files
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(malform(json.loads(EXAMPLE1_JSON))))
    argv = ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0.2"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: model file {model}")


def strict_json(text):
    """Parse `text` as RFC 8259 JSON: NaN and Infinity raise."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "flags, rc_want",
    [
        (("--norm", "l2", "--eps", "inf"), 1),
        (("--eps", "0.2", "--metrics"), 0),
        (("--eps", "0.2", "--method", "lp", "--metrics"), 2),
    ],
    ids=["l2-eps-inf", "metrics", "lp-metrics"],
)
def test_reports_are_strict_json(example1_files, tmp_path, flags, rc_want):
    out = tmp_path / "report.json"
    assert run(example1_files, "--json", str(out), *flags) == rc_want
    report = strict_json(out.read_text())
    if "inf" in flags:
        assert report["eps"] is None


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_tolerance_must_be_positive_and_finite(example1_files, tmp_path, capsys, tol):
    """--tol inf would stop the solve at its first check: on the README net
    at radius 0.2 that is a bound of -0.6, where the default certifies."""
    out = tmp_path / "report.json"
    assert run(example1_files, "--eps", "0.2", "--tol", tol, "--json", str(out)) == 3
    assert "tol must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


OVERFLOWING_BIASES = [1e308, -1e308]  # finite, but their difference is not
METHODS = ("lp", "sdp1", "sdp1-tight", "oracle", "sample-ub")


@pytest.mark.parametrize(
    "row, layer, bias, eps, method",
    [
        ("nan 0.5 0", None, None, "0", None),
        ("nan 0.5 0", None, None, "0.2", None),
        ("0 0.5 0", 0, [float("nan")], "0", None),
        ("0 0.5 0", 2, [float("inf")], "0.2", None),
        ("0 0.5 0", 2, OVERFLOWING_BIASES, "0", None),
        *[("0 0.5 0", 2, OVERFLOWING_BIASES, "0.2", m) for m in METHODS],
    ],
    ids=["nan-input-eps0", "nan-input-eps0.2", "nan-hidden-bias", "inf-output-bias",
         "overflowing-output-biases-eps0",
         *[f"overflowing-output-biases-{m}" for m in METHODS]],
)
def test_non_finite_numbers_exit_three(tmp_path, capsys, row, layer, bias, eps, method):
    """A NaN or infinite input coordinate or bias, or output biases whose
    difference overflows, is an input error, never a verdict: no "robust"
    from a NaN or infinite margin, no traceback with the "falsified" exit
    code."""
    doc = json.loads(EXAMPLE1_JSON)
    if layer is not None:
        doc["layers"][layer]["bias"][: len(bias)] = bias  # NaN / Infinity in JSON
    model, inputs = tmp_path / "net.json", tmp_path / "input.txt"
    model.write_text(json.dumps(doc))
    inputs.write_text(row + "\n")
    argv = ["verify", "--model", str(model), "--input", str(inputs), "--eps", eps]
    rc = main(argv + (["--method", method] if method else []))
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


def test_export_sdpa_has_one_merged_block(example1_files, tmp_path):
    model, inputs = example1_files
    out = tmp_path / "toy.dat-s"
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs),
         "--eps", "1.0", "--kind", "sdpa", "--out", str(out)]
    )
    assert rc == 0
    prob = read_sdpa(out)
    # the five order-4 cliques merge into one block; 31 moment columns
    assert prob.block_sizes == (8, -19)
    assert prob.n_constraints == 31


def test_export_mps_marks_every_sign_variable_integer(example1_files, tmp_path):
    model, inputs = example1_files
    out = tmp_path / "toy.mps"
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs),
         "--eps", "1.0", "--kind", "mps", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.count("INTORG") == 1
    assert text.count("INTEND") == 1
    assert text.count(" BV BND") == 4  # one per hidden sign variable
    assert "RHS" in text


def test_export_threshold_variant(example1_files, tmp_path):
    model, inputs = example1_files
    out = tmp_path / "attack.mps"
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs),
         "--eps", "1.0", "--kind", "mps", "--out", str(out),
         "--threshold", "0.0"]
    )
    assert rc == 0
    assert out.read_text().count(" BV BND") == 4


def test_export_validation_errors(example1_files, tmp_path, capsys):
    model, inputs = example1_files
    out = tmp_path / "x.mps"
    args = ["export", "--model", str(model), "--input", str(inputs), "--kind", "mps", "--out", str(out)]
    assert main(args + ["--eps", "0"]) == 3
    assert main(args + ["--eps", "1.0", "--target", "2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("threshold", ["inf", "nan"])
def test_export_rejects_a_non_finite_threshold(example1_files, tmp_path, capsys, threshold):
    model, inputs = example1_files
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs), "--eps", "1.0",
         "--kind", "mps", "--out", str(tmp_path / "attack.mps"), "--threshold", threshold]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "threshold" in err


def test_sdpa_export_refuses_a_threshold(example1_files, tmp_path, capsys):
    model, inputs = example1_files
    out = tmp_path / "instance.dat-s"
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs), "--eps", "1.0",
         "--kind", "sdpa", "--out", str(out), "--target", "1", "--threshold", "0.5"]
    )
    assert rc == 3
    assert "--threshold" in capsys.readouterr().err
    assert not out.exists()


def wide_margin_files(tmp_path):
    """The README net with output biases [20, -20]: label 1 everywhere."""
    doc = json.loads(EXAMPLE1_JSON)
    doc["layers"][2]["bias"] = [20.0, -20.0]
    model, inputs = tmp_path / "net.json", tmp_path / "input.txt"
    model.write_text(json.dumps(doc))
    inputs.write_text("0 0.5 0\n")
    return model, inputs


@pytest.mark.parametrize("eps", ["1e200", "inf"])
@pytest.mark.parametrize("method", ["lp", "sdp1", "sdp1-tight", "oracle"])
def test_huge_l2_radius_is_a_verdict(tmp_path, eps, method):
    """A radius whose square overflows binary64, or an infinite one, is the
    whole box [-1,1]^n0: every engine reaches the same verdict on it."""
    model, inputs = wide_margin_files(tmp_path)
    out = tmp_path / "report.json"
    rc = main(
        ["verify", "--model", str(model), "--input", str(inputs), "--norm", "l2",
         "--eps", eps, "--method", method, "--json", str(out)]
    )
    assert rc == 0
    assert json.loads(out.read_text())["verdict"] == "robust"


@pytest.mark.parametrize("eps", ["1e200", "inf"])
def test_export_sdpa_takes_a_huge_l2_radius(tmp_path, eps):
    model, inputs = wide_margin_files(tmp_path)
    out = tmp_path / "ball.dat-s"
    rc = main(
        ["export", "--model", str(model), "--input", str(inputs), "--norm", "l2",
         "--eps", eps, "--kind", "sdpa", "--out", str(out), "--target", "2"]
    )
    assert rc == 0
    assert read_sdpa(out).n_constraints > 0


def test_readme_example_settles_at_default_options(example1_files, tmp_path):
    # the first iterate with a positive rigorous bound ends the solve; its
    # bound is a certificate, not the relaxation optimum (the oracle's 3)
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.2", "--method", "sdp1-tight")
    assert rc == 0
    assert rep["verdict"] == "robust"
    (target,) = rep["targets"]
    assert target["solver_status"] == "settled"
    assert target["iterations"] <= 300
    assert 0 < target["lower_bound"] <= 3.0


def test_unsettled_solve_never_asks_the_callback(example1_files, tmp_path, monkeypatch):
    asked = []
    solve = cli.solve_conic

    def spy(problem, opts, setup, settled):
        def counted(res):
            asked.append(res.iterations)
            return settled(res)

        return solve(problem, opts, setup, counted)

    monkeypatch.setattr(cli, "solve_conic", spy)
    rc, rep = run_json(
        example1_files, tmp_path, "--eps", "0.2", "--method", "sdp1",
        "--tol", "1e-4", "--max-iter", "2000",
    )
    assert rc == 2
    (target,) = rep["targets"]
    assert target["iterations"] == 50
    assert target["solver_status"] == "optimal"
    assert target["lower_bound"] == pytest.approx(-1.0, abs=1e-4)
    assert asked == []


def test_oracle_witness_is_not_recomputed(example1_files, tmp_path, monkeypatch):
    walks = count_calls(monkeypatch, "feasible_patterns")
    minima = count_calls(monkeypatch, "exact_minimum")
    rc, rep = run_json(example1_files, tmp_path, "--eps", "0.7", "--method", "oracle")
    assert rc == 1
    assert rep["targets"][0]["status"] == "falsified"
    assert len(walks) == 1
    assert len(minima) == len(rep["targets"]) == 1


def test_a_crash_exits_three_not_falsified(example1_files, capsys, monkeypatch):
    """An exception that is not an input error (here a `RuntimeError`
    raised inside the oracle's cell walk) still exits 3: escaping `main`,
    it would exit 1, the "falsified" code."""

    def crash(*args, **kwargs):
        raise RuntimeError("cell walk failed")

    monkeypatch.setattr(cli, "feasible_patterns", crash)
    assert run(example1_files, "--eps", "0.2", "--method", "oracle") == 3
    assert capsys.readouterr().err == "error: RuntimeError: cell walk failed\n"


def attack_loop(net, region, label, n, seed):
    """Reference: the sampling attack as one `forward` per row, the center
    first, keeping only a row that lies in the region."""
    points = [region.center, *sample_region(region, n, np.random.default_rng(seed))]
    for x0 in points:
        if region.contains(x0) and forward(net, x0).label != label:
            return x0
    return None


def test_batched_attack_returns_the_loop_counterexample():
    found = 0
    nets = [(make_example1(), np.array([0.0, 0.5, 0.0]), 2)]
    rng = np.random.default_rng(5)
    for _ in range(3):
        net = stabilize(random_net(rng, (10, 8, 8, 3)))
        x = rng.uniform(-0.2, 0.2, 10)
        nets.append((net, x, forward(net, x).label))
    for net, x, label in nets:
        for norm in ("linf", "l2"):
            for eps in (0.3, 0.7, 1.0):
                region = getattr(PerturbationRegion, norm)(x, eps)
                for seed in (0, 1):
                    points, logits = sample_logits(net, region, cli.SAMPLES, seed)
                    got = cli._find_counterexample(net, region, points, logits, label)
                    want = attack_loop(net, region, label, cli.SAMPLES, seed)
                    assert (got is None) == (want is None)
                    if got is not None:
                        found += 1
                        assert got.tobytes() == want.tobytes()
                        assert forward(net, got).label != label
    assert found >= 10


def test_attack_falsified_report_lists_no_targets(example1_files, tmp_path, monkeypatch):
    """A query the opening attack falsifies bounds no target: the report
    has no targets, and --metrics no improvement entries."""
    walks = count_calls(monkeypatch, "feasible_patterns")
    solves = count_calls(monkeypatch, "solve_conic")
    for method in ("sdp1-tight", "oracle", "sample-ub"):
        rc, rep = run_json(
            example1_files, tmp_path, "--eps", "1.0", "--method", method, "--metrics"
        )
        assert (rc, rep["verdict"], rep["targets"]) == (1, "falsified", [])
        # only the SDP methods carry an improvement table
        assert rep["metrics"].get("improvement") == ({} if method == "sdp1-tight" else None)
    assert walks == solves == []


# -- stopping once the verdict is decided ---------------------------------------


def write_query(tmp_path, net, x):
    """Model and input files for `net` and the reference input `x`."""
    model, inputs = tmp_path / "net.json", tmp_path / "input.txt"
    layers = [{"weights": w.tolist(), "bias": b.tolist()} for w, b in zip(net.weights, net.biases)]
    model.write_text(json.dumps({"widths": list(net.widths), "layers": layers}))
    inputs.write_text(" ".join(repr(v) for v in x.tolist()) + "\n")
    return model, inputs


def seeded_net(seed, widths):
    rng = np.random.default_rng(seed)
    net = stabilize(random_net(rng, widths))
    return net, rng.uniform(-0.2, 0.2, widths[0])


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return calls


def test_relaxation_stops_at_its_first_uncertified_target(tmp_path, monkeypatch, capsys):
    net, x = seeded_net(1, (10, 8, 8, 3))
    solves = count_calls(monkeypatch, "solve_conic")
    rc, rep = run_json(
        write_query(tmp_path, net, x), tmp_path,
        "--eps", "0.1", "--tol", "1e-4", "--max-iter", "200",
    )
    assert rc == 2
    assert rep["verdict"] == "unknown"
    assert len(solves) == 1
    first, *rest = rep["targets"]
    label = rep["true_label"]
    assert [t["target"] for t in rep["targets"]] == [k for k in (1, 2, 3) if k != label]
    assert first["status"] == "unknown"
    assert rest and all(
        t == {"target": t["target"], "method": "sdp1-tight", "lower_bound": None,
              "approximate": None, "status": "skipped", "wall_time": 0.0,
              "iterations": None, "solver_status": None}
        for t in rest
    )
    assert "skipped" in capsys.readouterr().out

    # the first target is exactly what the shared relaxation gives on its own
    region = PerturbationRegion.linf(x, 0.1)
    k = first["target"]
    objective = objective_targeted(net, label, k)
    opts = SolveOptions(tol=1e-4, max_iter=200)
    relaxation = cli._relax(net, region, objective, "sdp1-tight")
    res, rb = relaxation.bound(objective, opts, settle=True)
    assert first["lower_bound"] == rb.value
    assert first["approximate"] == res.primal_objective
    assert first["iterations"] == res.iterations
    assert first["solver_status"] == res.status


def test_metrics_bound_and_compare_every_target(tmp_path):
    # the query of the test above: without --metrics its second target is
    # skipped
    net, x = seeded_net(1, (10, 8, 8, 3))
    files = write_query(tmp_path, net, x)
    flags = ("--eps", "0.1", "--tol", "1e-4", "--max-iter", "200")
    rc, rep = run_json(files, tmp_path, *flags, "--metrics")
    rc_plain, plain = run_json(files, tmp_path, *flags)
    assert (rc, rep["verdict"]) == (rc_plain, plain["verdict"]) == (2, "unknown")
    targets = rep["targets"]
    assert [t["target"] for t in targets] == [t["target"] for t in plain["targets"]]
    assert all(t["status"] != "skipped" and t["lower_bound"] is not None for t in targets)
    first, plain_first = dict(targets[0]), dict(plain["targets"][0])
    first.pop("wall_time"), plain_first.pop("wall_time")
    assert first == plain_first
    improvement = rep["metrics"]["improvement"]
    assert sorted(improvement) == [str(t["target"]) for t in targets]
    assert all(entry["sample_upper"] is not None for entry in improvement.values())


def dominant_net():
    """A 10-8-8-3 net whose output biases make class 1 win everywhere."""
    net, x = seeded_net(1, (10, 8, 8, 3))
    biases = net.biases[:-1] + (np.array([50.0, -50.0, -50.0]),)
    return FoldedBnn(net.widths, net.weights, biases), x


def test_robust_query_bounds_every_target(tmp_path, monkeypatch):
    solves = count_calls(monkeypatch, "solve_conic")
    rc, rep = run_json(write_query(tmp_path, *dominant_net()), tmp_path, "--eps", "0.1")
    assert rc == 0
    assert rep["verdict"] == "robust"
    assert [t["target"] for t in rep["targets"]] == [2, 3]
    assert all(t["status"] == "robust" for t in rep["targets"])
    assert len(solves) == 2


def test_oracle_stops_at_a_confirmed_counterexample(tmp_path, monkeypatch):
    # the sampling attack misses at this radius; the first target's exact
    # minimizer falsifies
    net, x = seeded_net(13, (4, 3, 3, 3))
    walks = count_calls(monkeypatch, "feasible_patterns")
    minima = count_calls(monkeypatch, "exact_minimum")
    rc, rep = run_json(
        write_query(tmp_path, net, x), tmp_path, "--eps", "0.3", "--method", "oracle"
    )
    assert rc == 1
    first, second = rep["targets"]
    assert first["status"] == "falsified"
    assert second["status"] == "skipped"
    assert len(walks) == len(minima) == 1
    assert forward(net, rep["counterexample"]).label != rep["true_label"]


def test_oracle_decides_each_cell_once_for_every_target(tmp_path, monkeypatch):
    """The layer-1 cells do not depend on the target: a robust query with
    three targets decides each of its 2^5 cells once, and every target's
    bound is the exact minimum `exact_verify` gives on its own."""
    net, x = seeded_net(0, (6, 5, 5, 4))
    biases = net.biases[:-1] + (np.array([50.0, -50.0, -50.0, -50.0]),)
    net = FoldedBnn(net.widths, net.weights, biases)
    cells = []
    witness = oracle._cell_witness

    def spy(*args):
        cells.append(args)
        return witness(*args)

    monkeypatch.setattr(oracle, "_cell_witness", spy)
    rc, rep = run_json(
        write_query(tmp_path, net, x), tmp_path, "--eps", "0.3", "--method", "oracle"
    )
    assert (rc, rep["true_label"]) == (0, 1)
    assert [t["target"] for t in rep["targets"]] == [2, 3, 4]
    assert len(cells) == 2 ** net.hidden_widths[0] == 32
    region = PerturbationRegion.linf(x, 0.3)
    for t in rep["targets"]:
        objective = objective_targeted(net, 1, t["target"])
        assert t["lower_bound"] == exact_verify(net, region, objective).value


def test_sample_ub_without_a_witness_samples_every_target(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "sample_logits")
    rc, rep = run_json(
        write_query(tmp_path, *dominant_net()), tmp_path, "--eps", "0.1",
        "--method", "sample-ub",
    )
    assert rc == 2
    assert [t["status"] for t in rep["targets"]] == ["unknown", "unknown"]
    assert all(t["approximate"] > 0 for t in rep["targets"])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("--eps", "0.1", "--method", "sample-ub"),
        ("--eps", "0.1", "--tol", "1e-4", "--max-iter", "200", "--metrics"),
        ("--eps", "0",),
    ],
    ids=["sample-ub", "metrics", "eps-0"],
)
def test_one_sample_per_query(tmp_path, monkeypatch, flags):
    """The attack, every target's sampled margin and --metrics read one
    `sample_logits` call, on a query with two targets."""
    calls = count_calls(monkeypatch, "sample_logits")
    rc, rep = run_json(write_query(tmp_path, *dominant_net()), tmp_path, *flags)
    assert len(rep["targets"]) == 2
    assert all(t["status"] != "skipped" for t in rep["targets"])
    assert len(calls) == 1
    if "--metrics" in flags:
        assert sorted(rep["metrics"]["improvement"]) == ["2", "3"]


def test_cli_import_and_small_verifies_load_no_scipy(example1_files, tmp_path):
    """`import bnncert.cli` loads no scipy module, and neither do `lp`,
    `sdp1` and `sdp1-tight` verifies: on the README net (with and without
    `--metrics`) and on a seeded 20-12-12-4 net.  At eps 0.1 that net folds
    to 20-3-5-4 over the region and is certified; at eps 0.3 no neuron folds
    and its tightened relaxation has 1010 columns.  Nor does a linf `oracle`
    verify, whose cells are decided in rationals: at eps 0.5 the README net
    has a cell feasible only at a box corner.  Nor does an l2 `oracle`
    verify, whose cells are decided in rationals too."""
    model, inputs = example1_files
    big_model, big_inputs = write_query(tmp_path, *seeded_net(1, (20, 12, 12, 4)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, json, sys, bnncert.cli\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "steps = [['import', None, scipy()]]\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = bnncert.cli.main(args)\n"
        "    steps.append([' '.join(args[5:]), rc, scipy()])\n"
        "print(json.dumps(steps))"
    )
    base = ["verify", "--model", str(model), "--input", str(inputs)]
    queries = [
        base + ["--eps", "0.2", "--method", "sdp1-tight"],
        base + ["--eps", "0.2", "--method", "sdp1-tight", "--metrics"],
        base + ["--eps", "0.5", "--method", "sdp1"],
        base + ["--eps", "0.2", "--method", "lp"],
        ["verify", "--model", str(big_model), "--input", str(big_inputs), "--eps", "0.1",
         "--method", "sdp1-tight", "--max-iter", "200"],
        ["verify", "--model", str(big_model), "--input", str(big_inputs), "--eps", "0.3",
         "--method", "sdp1-tight", "--max-iter", "200"],
        base + ["--eps", "0.5", "--method", "oracle"],
        base + ["--norm", "l2", "--eps", "0.7", "--method", "oracle"],
    ]
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(queries)],
        env=env, capture_output=True, text=True, check=True,
    )
    steps = json.loads(out.stdout)
    assert [rc for _, rc, _ in steps[1:]] == [0, 0, 2, 2, 0, 2, 0, 0]
    assert all(not modules for _, _, modules in steps), steps


def tie_fold_net():
    """2-3-2-2 net over the box [0.25, 0.75] x [-0.25, 0.25]: layer-1 neuron
    1 (x1 - 0.25) has z_min = 0, neuron 2 (x1 - 0.75) has z_max = 0 and
    neuron 3 (x2) has the box center on its hyperplane."""
    return FoldedBnn(
        widths=(2, 3, 2, 2),
        weights=(
            np.array([[1, 0], [1, 0], [0, 1]]),
            np.array([[1, 1, 1], [-1, 1, -1]]),
            np.array([[1, -1], [-1, 1]]),
        ),
        biases=(np.array([-0.25, -0.75, 0.0]), np.array([0.5, -0.5]), np.array([0.0, 0.25])),
    )


def test_region_fold_ties():
    """z_min = 0 folds to +1; z_max = 0 is +1 on one edge of the box and -1
    elsewhere, so it stays, as does a neuron whose hyperplane holds the
    center.  Labels agree on the box, its tie edges included."""
    net = tie_fold_net()
    region = PerturbationRegion.linf([0.5, 0.0], 0.25)
    out = stabilize(net, region)
    assert out.widths == (2, 2, 2, 2)
    assert out.log == ("layer 1 neuron 1: constant +1 over the region, removed",)
    points = np.vstack([
        np.array(list(itertools.product((0.25, 0.5, 0.75), (-0.25, 0.0, 0.25)))),
        sample_region(region, 1000, np.random.default_rng(0)),
    ])
    for x in points:
        assert forward(out, x).label == forward(net, x).label


def test_region_fold_that_would_empty_a_layer_folds_nothing(example1, example1_files, tmp_path):
    """Both layer-1 neurons of the README net are constant at radius 0.2:
    the output is constant over the region, so `stabilize` refuses to
    empty layer 1 and the CLI bounds the net as it is."""
    region = PerturbationRegion.linf(EXAMPLE1_X0, 0.2)
    with pytest.raises(ValueError, match="layer 1 fully stabilized"):
        stabilize(example1, region)
    _, rep = run_json(example1_files, tmp_path, "--eps", "0.2", "--metrics")
    assert rep["metrics"]["widths"] == [3, 2, 2, 2]
    assert rep["metrics"]["relaxation"]["psd_orders"] == [8]
    assert not any("over the region" in line for line in rep["metrics"]["stabilization_log"])


def test_folded_query_reports_the_cube_widths_and_logs_each_fold(tmp_path):
    """The report's widths are the stabilized net's; `--metrics` lists the
    region folds in `stabilization_log` and sizes the folded relaxation."""
    net, x = seeded_net(1, (20, 12, 12, 4))
    rc, rep = run_json(
        write_query(tmp_path, net, x), tmp_path,
        "--eps", "0.1", "--method", "sdp1-tight", "--max-iter", "200", "--metrics",
    )
    assert rc == 0 and rep["verdict"] == "robust"
    assert rep["widths"] == [20, 12, 12, 4]
    metrics = rep["metrics"]
    folds = [line for line in metrics["stabilization_log"] if "over the region" in line]
    assert len(folds) == 12 - metrics["widths"][1] and folds[0].startswith("layer 1 neuron")
    assert metrics["widths"][2] < 12
    assert max(metrics["relaxation"]["psd_orders"]) < 45


def test_exactly_folded_biases_let_the_attack_falsify(tmp_path):
    """The net whose rounded bias fold read a non-constant neuron as
    constant +1: every engine, sampling first, now finds the label change."""
    model = tmp_path / "net.json"
    model.write_text(json.dumps({
        "widths": [2, 4, 2, 2],
        "layers": [
            {"weights": [[0, 0], [0, 0], [1, 0], [0, 1]], "bias": [0.5, 0.5, 0, 0]},
            {"weights": [[1, 1, 1, 1], [0, 0, 1, 0]], "bias": [-(2.0**-53), 0]},
            {"weights": [[1, 0], [-1, 0]], "bias": [0, 0]},
        ],
    }))
    inputs = tmp_path / "input.txt"
    inputs.write_text("0.5 0.5\n")
    for method in ("sdp1-tight", "oracle", "lp"):
        assert main(["verify", "--model", str(model), "--input", str(inputs), "--eps", "1.0",
                     "--method", method]) == 1


def test_oracle_counterexample_lies_in_the_exact_region(tmp_path):
    """x - 0.30000000000000004 >= 0 changes the label.  Over |x - 0.1| <= 0.2
    the exact bound 0.1 + 0.2 = 0.3000000000000000166 lies below that bias,
    so the query is robust; only the float 0.1 + 0.2, one ulp outside the
    region, changes the label."""
    model = tmp_path / "net.json"
    model.write_text(json.dumps({
        "widths": [1, 1, 2],
        "layers": [
            {"weights": [[1]], "bias": [-0.30000000000000004]},
            {"weights": [[-1], [1]], "bias": [0, 0]},
        ],
    }))
    inputs = tmp_path / "input.txt"
    inputs.write_text("0.1\n")
    argv = ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0.2"]
    assert main(argv + ["--method", "oracle"]) == 0
    region = PerturbationRegion.linf([0.1], 0.2)
    assert not region.contains([0.1 + 0.2])
    net = stabilize(fold_batchnorm(load_model(model)))
    assert forward(net, [0.1 + 0.2]).label == 2


def test_oracle_falsifies_the_tie_that_a_rounded_fold_hid(tmp_path):
    """Two layer-2 neurons are +1 over the whole cube and fold 2 into class
    2's logit, whose bias 0.1 reads 2.1 after the fold.  Rounded, 0.1 + 2
    would lie above 2.1 and class 2 would win everywhere; exactly, both
    logits are 2.1 at x = 0.25, where the tie breaks to class 1."""
    model = tmp_path / "tie.json"
    model.write_text(json.dumps({
        "widths": [1, 1, 4, 2],
        "layers": [
            {"weights": [[1]], "bias": [-0.2499]},
            {"weights": [[0], [0], [1], [1]], "bias": [1, 1, 0, 0]},
            {"weights": [[0, 0, 1, 1], [1, 1, 0, 0]], "bias": [0.1, 0.1]},
        ],
    }))
    inputs = tmp_path / "input.txt"
    inputs.write_text("-0.25\n")
    report = tmp_path / "report.json"
    argv = ["verify", "--model", str(model), "--input", str(inputs), "--eps", "0.5",
            "--method", "oracle", "--json", str(report)]
    assert main(argv) == 1
    rep = json.loads(report.read_text())
    x = rep["counterexample"]
    assert in_region(PerturbationRegion.linf([-0.25], 0.5), x)
    assert forward(fold_batchnorm(load_model(model)), x).label == 1


# -- one exact forward pass -----------------------------------------------------

#: layer-1 neuron 1's exact pre-activation is 0 at the region's corner
#: (0.5, 2^-54, 2^-54), so the region fold makes it constant +1; numpy's
#: sum 0.5 + 2^-54 + 2^-54 - (0.5 + 2^-53) rounds to -2^-53
CORNER_NET = FoldedBnn(
    widths=(3, 2, 2),
    weights=(np.array([[1, 1, 1], [1, -1, 0]]), np.array([[1, 0], [-1, 0]])),
    biases=(np.array([-0.5000000000000001, -0.5009765625]), np.zeros(2)),
)
CORNER_X = np.array([0.5009765625, 0.0009765625000000555, 0.0009765625000000555])


@pytest.mark.parametrize("method", ["oracle", "sdp1-tight", "lp"])
def test_no_engine_certifies_a_region_whose_corner_changes_label(tmp_path, method):
    """"robust" never sits beside a point of the region whose `forward`
    label differs: at the corner, `forward` reads the exact sign, +1, and
    keeps the center's label."""
    rc = run(write_query(tmp_path, CORNER_NET, CORNER_X), "--eps", repr(2.0**-10),
             "--method", method)
    corner = [0.5, 2.0**-54, 2.0**-54]
    assert PerturbationRegion.linf(CORNER_X, 2.0**-10).contains(corner)
    label = forward(CORNER_NET, CORNER_X).label
    assert not (rc == 0 and forward(CORNER_NET, corner).label != label)
    assert forward(CORNER_NET, corner).label == 1


def output_tie_net(first_bias, out_weights, out_biases):
    """2-1-3-2 net: at (-0.9999, -0.9999) the layer-1 neuron is -1 and the
    layer-2 signs are (-1, +1, +1)."""
    return FoldedBnn(
        widths=(2, 1, 3, 2),
        weights=(np.array([[1, 1]]), np.array([[1], [-1], [1]]), np.array(out_weights)),
        biases=(np.array([first_bias]), np.array([0.5, 0.5, 5]), np.array(out_biases)),
    )


def test_output_tie_at_eps_zero_is_decided_exactly(tmp_path):
    """Both logits round to 1.1 at (-0.9999, -0.9999), but class 2's,
    1 + 0.1000000000000001, exceeds class 1's, 1.1, by 1.39e-17 exactly:
    the eps 0 margin is that exact value rounded down, and it certifies."""
    net = output_tie_net(1.999, [[-1, 0, -1], [0, 0, 1]], [1.1, 0.1000000000000001])
    x = np.array([-0.9999, -0.9999])
    rc, rep = run_json(write_query(tmp_path, net, x), tmp_path, "--eps", "0", "--label", "2")
    assert rc == 0
    (target,) = rep["targets"]
    margin = 1 + Fraction(0.1000000000000001) - Fraction(1.1)
    assert 0 < target["lower_bound"] <= margin < np.nextafter(target["lower_bound"], 1)
    trace = forward(net, x)
    assert trace.logits[0] == trace.logits[1] and trace.label == 2
    # over the region around (-0.95, -0.95) the engines certify that margin
    files = write_query(tmp_path, net, np.array([-0.95, -0.95]))
    for method in ("oracle", "lp"):
        assert run(files, "--eps", "0.05", "--label", "2", "--method", method) == 0


def test_reverse_output_tie_is_falsified(tmp_path):
    """Class 2 exceeds class 1 by 8.3e-17 exactly on the cell where the
    layer-1 neuron is -1, half the box, though their logits round to a
    tie: the attack keeps float ties, and `forward` decides them."""
    net = output_tie_net(1.9, [[0, 0, 1], [-1, 0, -1]], [0.1, 1.1])
    files = write_query(tmp_path, net, np.array([-0.95, -0.95]))
    rc, rep = run_json(files, tmp_path, "--eps", "0.05", "--method", "lp")
    assert (rc, rep["true_label"]) == (1, 1)
    x = rep["counterexample"]
    assert in_region(PerturbationRegion.linf([-0.95, -0.95], 0.05), x)
    assert forward(net, x).label == 2
    for method in ("sdp1-tight", "oracle"):
        assert run(files, "--eps", "0.05", "--method", method) == 1
