import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from uavlos.env import GridParams, UrbanGrid, _Cities

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    # a failing property prints its ``@reproduce_failure`` line, so a failure
    # seen only in CI can be replayed
    print_blob=True,
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


def grid_cities(*grids: UrbanGrid) -> _Cities:
    """Cities built by hand, one per grid, as the flat arrays the chunk referees judge."""
    def cat(parts):
        return np.concatenate([np.asarray(p, dtype=float) for p in parts])

    nx, ny = np.array([g.block_heights.shape for g in grids], dtype=int).reshape(-1, 2).T
    return _Cities(cat(g.x_points for g in grids), cat(g.y_points for g in grids),
                   cat(g.x_splits for g in grids), cat(g.x_points[1:] for g in grids),
                   cat(g.y_splits for g in grids), cat(g.y_points[1:] for g in grids),
                   cat(g.block_heights.ravel() for g in grids), nx, ny,
                   np.ones(len(grids), dtype=int))


def point_links(g: tuple[float, float], uavs) -> list[np.ndarray]:
    """(gx, gy, ux, uy, uh): the links from ground point g to each platform,
    as the arrays ``oracle._point_clear`` takes."""
    return [np.array([g[0]] * len(uavs)), np.array([g[1]] * len(uavs)),
            *np.array([(u.x, u.y, u.height) for u in uavs], dtype=float).reshape(-1, 3).T]
