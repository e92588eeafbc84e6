import numpy as np
import pytest

from wavelqr.model import Boundary, ModalWeight, WaveConfig
from wavelqr.riccati import ModalTable, modal_table


@pytest.fixture
def dirichlet_cfg():
    return WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)


@pytest.fixture
def neumann_cfg():
    return WaveConfig(Boundary.NEUMANN, alpha=0.0, beta=1.0, R=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sweep_configs():
    """The acceptance sweep: every (alpha, beta, R, q, r) combination."""
    out = []
    for alpha in (0.0, 0.1, 1.0):
        for beta in (0.5, 1.0, 2.0):
            for R in (0.5, 1.0, 2.0):
                for q in (0.1, 1.0, 10.0):
                    for r in (2.5, 4.5, 6.5):
                        out.append((alpha, beta, R, q, r))
    return out


def one_mode(cfg: WaveConfig, w: ModalWeight) -> ModalTable:
    """The one-row table of a single modal weight."""
    return modal_table(cfg, [w.n], [w.q11], [w.q12], [w.q22])
