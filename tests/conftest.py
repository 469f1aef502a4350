import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from uavlos.env import GridParams, UrbanGrid, _Cities

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# one line per acceptance criterion, echoed into the terminal summary so the
# verdicts stay visible even with output capture on
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def urban() -> GridParams:
    return GridParams(45.0, 13.0, 8.0)


def make_single_block_grid(height: float) -> UrbanGrid:
    """One building [8,12] x [16,24] of the given height, nothing else."""
    params = GridParams(4.0, 4.0, 8.0, (400.0, 400.0))
    return UrbanGrid(
        params,
        0,
        np.array([8.0, 12.0]),
        np.array([16.0, 24.0]),
        np.array([8.0]),
        np.array([16.0]),
        np.array([[height]]),
    )


def grid_cities(grid: UrbanGrid) -> _Cities:
    """One city, built by hand, as the flat arrays the chunk referees judge."""
    nx, ny = grid.block_heights.shape
    return _Cities(grid.x_points, grid.y_points, grid.x_splits, grid.x_points[1:], grid.y_splits,
                   grid.y_points[1:], grid.block_heights.ravel(), np.array([nx]), np.array([ny]),
                   np.array([1]))
