import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from psforge import GridSpec, integrate_frame, soliton_angle
from psforge.surfaces import fundamental_forms


@pytest.fixture(scope="session")
def soliton_grid():
    return GridSpec(-2.0, -2.0, 201, 201, 0.02, 0.02)


@pytest.fixture(scope="session")
def soliton(soliton_grid):
    return soliton_angle(1.0, soliton_grid)


@pytest.fixture(scope="session")
def small_soliton():
    grid = GridSpec(-1.0, -1.0, 101, 101, 0.02, 0.02)
    return soliton_angle(1.0, grid)


@pytest.fixture(scope="session")
def soliton_frame(soliton):
    return integrate_frame(soliton, 1.0, substeps=2)


@pytest.fixture(scope="session")
def pseudosphere(soliton_frame):
    return soliton_frame, fundamental_forms(soliton_frame)


@pytest.fixture(scope="session")
def sin_mask(soliton):
    return np.sin(soliton.phi) > 0.1
