import numpy as np
import pytest

from blochlab.model import Model, ModelConfig, PhaseVector, minimal_grid_config


@pytest.fixture(scope="session")
def minimal_model():
    """One spin at the origin, beta = e_z, single k-point grid."""
    cfg = minimal_grid_config(N=1, positions=[[0.0, 0.0, 0.0]], beta=(0.0, 0.0, 1.0))
    return Model(cfg)


@pytest.fixture(scope="session")
def octa_model():
    """Two spins, octahedral direction set, 2 radial nodes."""
    cfg = ModelConfig(
        N=2,
        positions=[[0.0, 0.0, 0.0], [1.0, 0.3, -0.2]],
        beta=(0.2, 0.0, 0.7),
        grid_radial_nodes=2,
        grid_kmax=3.0,
        grid_directions="octahedral",
    )
    return Model(cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260826)


def random_phase_vector(rng, dim, scale=1.0):
    return PhaseVector(
        scale * rng.standard_normal(dim), scale * rng.standard_normal(dim)
    )


def zero_vector(dim):
    return PhaseVector(np.zeros(dim), np.zeros(dim))
