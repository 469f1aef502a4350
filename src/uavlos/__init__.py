"""Expected line-of-sight duration between moving ground users and static UAVs
over a Manhattan street grid: city sampling, closed-form probabilities, epoch
expectations, a ground-truth interval simulator, and association policies.
"""

from .env import (
    DegenerateGeometryError,
    DegenerateGridError,
    GridParams,
    Uav,
    UrbanGrid,
    UserInBuildingError,
    UserMotion,
    corner_events,
    sample_grid,
    sample_grid_anchored,
)
from .analytic import (
    CdfHeights,
    RayleighHeights,
    p_los_static,
)
from .mobility import (
    ExpectedLosResult,
    canonical_plan,
    expected_los_piecewise,
    expected_los_total,
    expected_los_x_segment,
    p_los_x_segment,
    poisson_truncation_count,
)
from .oracle import (
    TrialStats,
    coverage_time,
    is_los,
    los_intervals,
    los_time,
    los_time_sampled,
    monte_carlo_expected_los,
    monte_carlo_static_los,
)
from .assoc import (
    Assignment,
    PolicyComparison,
    assign_max_expected_los,
    assign_nearest_los,
    compare_policies,
    realized_value,
)

__version__ = "0.1.0"
