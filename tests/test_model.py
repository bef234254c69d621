import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelonopt.model import (
    CYCLE_DETECTED,
    MULTIPLE_UPSTREAMS,
    SOURCE,
    TARGET_ON_NONCUSTOMER_FACILITY,
    UNKNOWN_UPSTREAM,
    FacilitySpec,
    NetworkSpec,
    NonFiniteInputError,
    PolicyVector,
    ScenarioConfig,
    repair_policy,
    repair_policy_array,
    validate_network,
)


def five_facility_network():
    # SOURCE -> 1, 1 -> 2, 1 -> 3, 3 -> 4, 3 -> 5
    return NetworkSpec([
        FacilitySpec("1", SOURCE, 3, 0.95, True),
        FacilitySpec("2", "1", 4, 0.95, True),
        FacilitySpec("3", "1", 4, 0.0, False),
        FacilitySpec("4", "3", 2, 0.95, True),
        FacilitySpec("5", "3", 2, 0.95, True),
    ])


class TestValidateNetwork:
    def test_five_facility_tree_is_valid(self):
        assert validate_network(five_facility_network()) == []

    def test_single_facility_under_source_is_valid(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 0.9, True)])
        assert validate_network(net) == []

    def test_mutual_upstreams_detected_as_cycle(self):
        net = NetworkSpec([
            FacilitySpec("a", "b", 1, 0.0, False),
            FacilitySpec("b", "a", 1, 0.0, False),
        ])
        codes = {v.code for v in validate_network(net)}
        assert CYCLE_DETECTED in codes

    def test_self_loop_detected(self):
        net = NetworkSpec([FacilitySpec("a", "a", 1, 0.0, False)])
        codes = {v.code for v in validate_network(net)}
        assert CYCLE_DETECTED in codes

    def test_unknown_upstream(self):
        net = NetworkSpec([FacilitySpec("a", "ghost", 1, 0.0, False)])
        violations = validate_network(net)
        assert any(v.code == UNKNOWN_UPSTREAM and v.facility_id == "a"
                   for v in violations)

    def test_duplicate_id_reported(self):
        net = NetworkSpec([
            FacilitySpec("a", SOURCE, 1, 0.0, False),
            FacilitySpec("a", SOURCE, 2, 0.0, False),
        ])
        codes = {v.code for v in validate_network(net)}
        assert MULTIPLE_UPSTREAMS in codes

    def test_target_on_noncustomer_facility(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 0.5, False)])
        codes = {v.code for v in validate_network(net)}
        assert TARGET_ON_NONCUSTOMER_FACILITY in codes

    def test_target_outside_unit_interval(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 1.5, True)])
        codes = {v.code for v in validate_network(net)}
        assert TARGET_ON_NONCUSTOMER_FACILITY in codes


class TestPolicyVector:
    def test_round_trip_through_array(self):
        net = five_facility_network()
        pol = PolicyVector(
            {"1": 1000, "2": 250, "3": 200, "4": 150, "5": 200},
            {"1": 3000, "2": 600, "3": 900, "4": 300, "5": 600})
        x = pol.to_array(net)
        assert PolicyVector.from_array(net, x) == pol

    def test_base_below_reorder_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector({"a": 10}, {"a": 5})

    def test_negative_reorder_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector({"a": -1}, {"a": 5})

    def test_equal_base_and_reorder_allowed(self):
        PolicyVector({"a": 7}, {"a": 7})


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.horizon == 360
        assert cfg.replications == 20
        assert cfg.penalty_rho == 1.0e6
        assert cfg.initial_inventory_fraction == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"horizon": 0},
        {"replications": 0},
        {"penalty_rho": -1.0},
        {"initial_inventory_fraction": 1.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


class TestRepairPolicy:
    # One facility: layout is [R, B].
    LO = np.array([0.0, 0.0])
    HI = np.array([1000.0, 1000.0])

    def test_rounding_only(self):
        out = repair_policy_array(np.array([199.6, 245.2]), self.LO, self.HI)
        assert out.tolist() == [200.0, 245.0]

    def test_base_lifted_to_reorder(self):
        out = repair_policy_array(np.array([300.0, 250.0]), self.LO, self.HI)
        assert out.tolist() == [300.0, 300.0]

    def test_clamp_to_box(self):
        out = repair_policy_array(np.array([-5.0, 10.0]), self.LO, self.HI)
        assert out.tolist() == [0.0, 10.0]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            repair_policy_array(np.array([np.nan, 1.0]), self.LO, self.HI)
        with pytest.raises(NonFiniteInputError):
            repair_policy_array(np.array([np.inf, 1.0]), self.LO, self.HI)

    def test_returns_policy_vector(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 0.9, True)])
        pol = repair_policy(np.array([10.4, 3.0]), self.LO, self.HI, net)
        assert pol.reorder_point["a"] == 10
        assert pol.base_stock["a"] == 10

    @given(st.lists(st.floats(-500, 1500), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_in_box(self, values):
        lo = np.array([0.0, 10.0, 0.0, 25.0])
        hi = np.array([400.0, 600.0, 500.0, 800.0])
        raw = np.array(values)
        once = repair_policy_array(raw, lo, hi)
        twice = repair_policy_array(once, lo, hi)
        assert np.array_equal(once, twice)
        assert np.all(once >= lo) and np.all(once <= hi)
        n = len(once) // 2
        assert np.all(once[n:] >= once[:n])
        assert np.array_equal(once, np.rint(once))

    @given(st.lists(st.lists(st.floats(-500, 1500), min_size=4, max_size=4),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_repaired_as_single_proposals(self, rows):
        lo = np.array([0.0, 10.0, 0.0, 25.0])
        hi = np.array([400.0, 600.0, 500.0, 800.0])
        raw = np.array(rows)
        stacked = np.array([repair_policy_array(row, lo, hi) for row in raw])
        assert np.array_equal(repair_policy_array(raw, lo, hi), stacked)
