"""Acceptance tests, one per entry of ``uavlos.checks.CRITERIA``.

Each records its verdict line for the terminal summary; ``c5b-width``, the
expected failure, is marked xfail, and fails the suite if it passes: a
record that no longer holds must be updated, not read as a silent PASS.
"""

import pytest

import conftest
from uavlos.checks import CRITERIA

_COVERED: list[str] = []


def _criterion(name: str):
    _COVERED.append(name)

    def test():
        v = CRITERIA[name]()
        tag = "FAIL (expected)" if (not v.ok and v.expected_fail) else ("PASS" if v.ok else "FAIL")
        conftest.ACCEPTANCE_LINES.append(f"{tag}  {v.name}: {v.detail}")
        if v.expected_fail and not v.ok:
            pytest.xfail(v.detail)
        assert not v.expected_fail, (
            f"{name} passed but is recorded as an expected failure ({v.detail}): update its "
            "record, expected_fail in uavlos.checks and the notes that cite it")
        assert v.ok, v.detail

    return test


test_c1_segment_expectation_matches_quadrature = _criterion("c1")
test_c2_generic_height_law_matches_closed_form = _criterion("c2")
test_c3_expected_los_matches_geometric_ensemble = _criterion("c3")
test_c4_static_point_probability = _criterion("c4")
test_c5a_height_sweep_peaks_inside_range = _criterion("c5a")
test_c5b_ratio_sweep_decreases_per_width = _criterion("c5b")
test_c5b_width_ordering_expected_failure = _criterion("c5b-width")
test_c5c_velocity_sweep_peaks_inside_range = _criterion("c5c")
test_c6_association_beats_nearest_when_moving = _criterion("c6")
test_c7_truncation_count_minimal = _criterion("c7")
test_c8_interval_engine_matches_millisecond_sampling = _criterion("c8")
test_no_building_limit_is_exact = _criterion("no-building-limit")
test_assoc_1x1_policies_identical = _criterion("assoc-1x1-identical")
test_assoc_nearest_matches_brute_force = _criterion("assoc-nearest-brute-force")


def test_every_criterion_has_one_test():
    assert _COVERED == list(CRITERIA)
