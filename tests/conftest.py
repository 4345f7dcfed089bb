import os

# One BLAS thread: the per-tract oracle loops in the tests are small solves
# that run many times slower when a second BLAS thread waits for a busy
# core. This must run before numpy is first imported to take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tracteq.synth import ScenarioSpec, Surface, generate


@pytest.fixture(scope="session")
def step_scenario():
    """8x8 lattice with a step in the x1 coefficient at the east-west midline."""
    spec = ScenarioSpec(
        rows=8,
        cols=8,
        cell_size=500.0,
        surfaces={
            "intercept": Surface("constant", value=1.0),
            "x1": Surface("step", value=1.0, high_value=3.0, axis="x", threshold=2000.0),
        },
        noise_sigma=0.05,
        group_share=Surface("gradient", value=0.3, gx=0.0001),
        od_pairs=50,
        max_count=15,
        seed=11,
        highway_row=4,
    )
    return generate(spec)


@pytest.fixture(scope="session")
def gradient_scenario():
    """6x6 lattice with a smooth north-south gradient in x1."""
    spec = ScenarioSpec(
        rows=6,
        cols=6,
        cell_size=500.0,
        surfaces={
            "intercept": Surface("constant", value=0.5),
            "x1": Surface("gradient", value=1.0, gy=0.0005),
        },
        noise_sigma=0.1,
        od_pairs=30,
        seed=7,
    )
    return generate(spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
