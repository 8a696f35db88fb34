"""Shared fixtures: the worked 3-2-2-2 toy network and random net generators.

The toy network (widths (3,2,2,2), reference input (0, 0.5, 0)) is small
enough that every quantity in the suite — forward trace, LP rows, moment
counts, exact optima — can be checked against hand computation.

`random_net` draws ternary nets that survive `stabilize`: hidden biases are
capped at 0.3 * nv.  `random_region` centers its regions in [-0.2, 0.2]^n0
with radii in [0.6, 1.0] by default, where every layer-1 neuron takes both
signs; small radii make layer-1 neurons constant over the region, which every
encoding accepts too.
`in_region` is the reference membership test, in rationals.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from bnncert import FoldedBnn, PerturbationRegion

settings.register_profile("ci", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("ci")


EXAMPLE1_WIDTHS = (3, 2, 2, 2)
EXAMPLE1_X0 = np.array([0.0, 0.5, 0.0])


def make_example1() -> FoldedBnn:
    return FoldedBnn(
        widths=EXAMPLE1_WIDTHS,
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


@pytest.fixture
def example1() -> FoldedBnn:
    return make_example1()


@pytest.fixture
def x0_example() -> np.ndarray:
    return EXAMPLE1_X0.copy()


EXAMPLE1_JSON = """
{
  "widths": [3, 2, 2, 2],
  "layers": [
    {"weights": [[-1, 1, 1], [-1, -1, 1]], "bias": [1.5, 2.0]},
    {"weights": [[-1, -1], [-1, 1]], "bias": [1.0, -0.5]},
    {"weights": [[-1, 1], [-1, -1]], "bias": [-2.0, -1.0]}
  ]
}
"""


@pytest.fixture(scope="session")
def example1_files(tmp_path_factory):
    """(model_path, inputs_path) for CLI and loader tests."""
    d = tmp_path_factory.mktemp("toy")
    model = d / "example1.json"
    model.write_text(EXAMPLE1_JSON)
    inputs = d / "inputs.txt"
    inputs.write_text("# reference inputs, one per line\n0 0.5 0\n0.1 -0.3 0.2\n")
    return model, inputs


def random_net(rng: np.random.Generator, widths) -> FoldedBnn:
    """Ternary net with hidden |bias| <= 0.3 * nv and no all-zero hidden rows."""
    widths = tuple(int(w) for w in widths)
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
    return FoldedBnn(widths=widths, weights=tuple(weights), biases=tuple(biases))


def random_region(
    rng: np.random.Generator, dim: int, kind: str = "linf", radii=(0.6, 1.0)
) -> PerturbationRegion:
    center = rng.uniform(-0.2, 0.2, size=dim)
    radius = float(rng.uniform(*radii))
    if kind == "linf":
        return PerturbationRegion.linf(center, radius)
    return PerturbationRegion.l2(center, radius)


def in_region(region: PerturbationRegion, x) -> bool:
    """Reference membership, in rationals from the region's center and
    radius."""
    x = [Fraction(v) for v in x]
    dist = [v - Fraction(c) for v, c in zip(x, region.center.tolist())]
    if any(abs(v) > 1 for v in x) or np.isinf(region.radius):
        return all(abs(v) <= 1 for v in x)
    r = Fraction(region.radius)
    if region.kind == "linf":
        return all(abs(d) <= r for d in dist)
    return sum(d * d for d in dist) <= r * r


def random_widths(rng: np.random.Generator, caps) -> tuple[int, ...]:
    """Widths drawn with 2 <= n_i <= caps[i]."""
    return tuple(int(rng.integers(2, c + 1)) for c in caps)
