import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelonopt.model import (
    SOURCE,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    NetworkValidationError,
    NonFiniteInputError,
    PolicyVector,
    ScenarioConfig,
    repair_policy_array,
    validate_network,
)
from echelonopt.optim import Budget, SearchSpace, minimize
from echelonopt.optim.core import SETTING_MINIMUMS
from echelonopt.sampling import (
    HistoryGenParams,
    InvalidParamsError,
    SeriesParams,
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
        assert validate_network(net) == [
            "facility a: upstream chain revisits 'a'"]

    def test_each_cycle_reported_once_at_its_first_member(self):
        # x and y only lead into the b <-> c loop, which is reported once,
        # at b; the self-loop d gets its own message.
        net = NetworkSpec([
            FacilitySpec("x", "c", 1, 0.0, False),
            FacilitySpec("b", "c", 1, 0.0, False),
            FacilitySpec("y", "x", 1, 0.0, False),
            FacilitySpec("c", "b", 1, 0.0, False),
            FacilitySpec("d", "d", 1, 0.0, False),
        ])
        assert validate_network(net) == [
            "facility b: upstream chain revisits 'b'",
            "facility d: upstream chain revisits 'd'"]

    def test_self_loop_detected(self):
        net = NetworkSpec([FacilitySpec("a", "a", 1, 0.0, False)])
        assert "facility a: upstream chain revisits 'a'" in validate_network(
            net)

    def test_unknown_upstream(self):
        net = NetworkSpec([FacilitySpec("a", "ghost", 1, 0.0, False)])
        assert ("facility a: upstream 'ghost' is not a known facility"
                in validate_network(net))

    def test_duplicate_id_reported(self):
        net = NetworkSpec([
            FacilitySpec("a", SOURCE, 1, 0.0, False),
            FacilitySpec("a", SOURCE, 2, 0.0, False),
        ])
        assert "facility a: declared more than once" in validate_network(net)

    def test_target_on_noncustomer_facility(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 0.5, False)])
        assert ("facility a: serves no customers, so target_beta must be 0, "
                "got 0.5" in validate_network(net))

    def test_target_outside_unit_interval(self):
        net = NetworkSpec([FacilitySpec("a", SOURCE, 1, 1.5, True)])
        assert ("facility a: target_beta 1.5 outside [0, 1]"
                in validate_network(net))

    # One network per rule, in the order validate_network checks them.
    @pytest.mark.parametrize("facilities,messages", [
        pytest.param([], ["the network has no facilities"], id="no-facilities"),
        pytest.param([FacilitySpec("a", SOURCE, 1, 0.0, False),
                      FacilitySpec("a", SOURCE, 2, 0.0, False)],
                     ["facility a: declared more than once"],
                     id="duplicate-id"),
        pytest.param([FacilitySpec(SOURCE, SOURCE, 1, 0.0, False)],
                     ["facility SOURCE: the SOURCE sentinel cannot be a "
                      "stocking facility"],
                     id="source-as-facility"),
        pytest.param([FacilitySpec("a", SOURCE, 1, 1.5, True)],
                     ["facility a: target_beta 1.5 outside [0, 1]"],
                     id="target-outside-unit-interval"),
        pytest.param([FacilitySpec("a", SOURCE, 1, 0.5, False)],
                     ["facility a: serves no customers, so target_beta "
                      "must be 0, got 0.5"],
                     id="target-on-noncustomer-facility"),
        pytest.param([FacilitySpec("a", SOURCE, -1, 0.0, False)],
                     ["facility a: base_lead_time -1 is negative"],
                     id="negative-lead-time"),
        pytest.param([FacilitySpec("a", "ghost", 1, 0.0, False)],
                     ["facility a: upstream 'ghost' is not a known facility"],
                     id="unknown-upstream"),
        pytest.param([FacilitySpec("a", "a", 1, 0.0, False)],
                     ["facility a: upstream chain revisits 'a'"],
                     id="self-loop"),
    ])
    def test_each_rule_reports_one_message(self, facilities, messages):
        assert validate_network(NetworkSpec(facilities)) == messages

    def test_error_joins_every_message(self):
        net = NetworkSpec([FacilitySpec("a", "ghost", -1, 0.5, False)])
        with pytest.raises(NetworkValidationError) as info:
            net.require_valid()
        assert info.value.violations == validate_network(net)
        assert str(info.value) == (
            "invalid network: facility a: serves no customers, so "
            "target_beta must be 0, got 0.5; facility a: base_lead_time -1 "
            "is negative; facility a: upstream 'ghost' is not a known "
            "facility")


class TestPolicyVector:
    def test_round_trip_through_array(self):
        net = five_facility_network()
        pol = PolicyVector(
            {"1": 1000, "2": 250, "3": 200, "4": 150, "5": 200},
            {"1": 3000, "2": 600, "3": 900, "4": 300, "5": 600})
        x = pol.to_array(net)
        assert PolicyVector.from_array(net, x) == pol
        # any sequence, as a JSON summary's best point is a list of ints
        assert PolicyVector.from_array(net, tuple(x.astype(int))) == pol
        assert PolicyVector.from_array(net, x.tolist()) == pol

    def test_base_below_reorder_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector({"a": 10}, {"a": 5})

    def test_negative_reorder_rejected(self):
        with pytest.raises(ValueError):
            PolicyVector({"a": -1}, {"a": 5})

    def test_equal_base_and_reorder_allowed(self):
        PolicyVector({"a": 7}, {"a": 7})

    def test_maps_over_different_facilities_rejected(self):
        with pytest.raises(ValueError, match="cover different facilities"):
            PolicyVector({"a": 1, "b": 1}, {"a": 2})

    def test_array_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 10 values, got 9"):
            PolicyVector.from_array(five_facility_network(), np.zeros(9))

    @pytest.mark.parametrize("rop,base", [
        (5.5, 20), (5, 20.2), (math.nan, 20), (5, math.nan), (5, math.inf),
        (-math.inf, 20), (np.float64(5.5), 20), ("5", 20), (None, 20),
        (True, 20),
    ])
    def test_value_that_is_not_a_whole_number_rejected(self, rop, base):
        field = "reorder_point" if base == 20 else "base_stock"
        with pytest.raises(ValueError, match=rf"^facility b: {field} must "
                           "be (a whole number|finite), got "):
            PolicyVector({"a": 1, "b": rop}, {"a": 2, "b": base})

    def test_whole_numbers_are_stored_as_ints(self):
        pol = PolicyVector({"a": 5.0, "b": np.int64(2), "c": np.uint8(1)},
                           {"a": np.float64(20.0), "b": 3, "c": 1})
        assert pol.reorder_point == {"a": 5, "b": 2, "c": 1}
        assert pol.base_stock == {"a": 20, "b": 3, "c": 1}
        values = [*pol.reorder_point.values(), *pol.base_stock.values()]
        assert all(type(v) is int for v in values)


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
        {"base_seed": -5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ScenarioConfig(**kwargs)


def _build(owner, name, value):
    if owner is ScenarioConfig:
        ScenarioConfig(**{name: value})
    elif owner is SeriesParams:
        SeriesParams(**{"mean": 1.0, "spread": 1.0, name: value})
    elif owner is HistoryGenParams:
        HistoryGenParams(demand={}, lead_delta={}, length=value)
    else:  # an optimizer setting, checked before any evaluation
        settings = {"cycles": 1, "iterations_per_cycle": 1,
                    "n_random_starts": 1, "kappa": 1.0, "seed": 0,
                    name: value}
        minimize(lambda x: pytest.fail("evaluated"),
                 SearchSpace([0.0], [1.0]), Budget(max_evaluations=2),
                 strategy="gp", **settings)


@pytest.mark.parametrize("owner,name,minimum,error", [
    (ScenarioConfig, "horizon", 1, ValueError),
    (ScenarioConfig, "replications", 1, ValueError),
    (ScenarioConfig, "penalty_rho", 0.0, ValueError),
    (ScenarioConfig, "base_seed", 0, ValueError),
    (SeriesParams, "mean", 0.0, InvalidParamsError),
    (SeriesParams, "spread", 0.0, InvalidParamsError),
    (HistoryGenParams, "length", 1, InvalidParamsError),
    *(("settings", name, minimum, ValueError)
      for name, minimum in SETTING_MINIMUMS.items()),
], ids=lambda v: getattr(v, "__name__", f"{v:g}" if type(v) is float
                         else str(v)))
@pytest.mark.parametrize("value,rule", [
    (math.nan, "finite, got nan"),
    (math.inf, "finite, got inf"),
    (-math.inf, ">= {minimum:g}, got -inf"),
    ("below", ">= {minimum:g}, got {below}"),
], ids=["nan", "inf", "-inf", "below"])
def test_value_below_its_minimum_or_not_finite_rejected(owner, name, minimum,
                                                        error, value, rule):
    below = minimum - 0.5
    if value == "below":
        value = below
    if type(minimum) is int:  # a count: the whole-number rule comes first
        rule = ("finite, got -inf" if value == -math.inf
                else rule.replace(">= {minimum:g}", "a whole number"))
    expected = rule.format(minimum=minimum, below=below)
    with pytest.raises(error, match=rf"^{name} must be {expected}$"):
        _build(owner, name, value)
    if owner != "settings":  # the minimum itself is allowed
        _build(owner, name, minimum)


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
        pol = PolicyVector.from_array(net, repair_policy_array(
            np.array([10.4, 3.0]), self.LO, self.HI))
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


class TestHistoryDataset:
    def test_callers_array_stays_writable(self):
        samples = np.array([3, 5, 8], dtype=np.int64)
        history = HistoryDataset(demand={"a": samples},
                                 lead_delta={"a": samples})
        assert samples.flags.writeable
        samples[0] = 99
        assert history.demand["a"].tolist() == [3, 5, 8]
        assert history.lead_delta["a"].tolist() == [3, 5, 8]

    def test_writing_the_base_of_a_passed_view_changes_nothing(self):
        base = np.arange(1, 6, dtype=np.int64)
        view = base[1:4]
        view.setflags(write=False)
        history = HistoryDataset(demand={"a": view}, lead_delta={"a": [0]})
        base[1] = 99
        assert history.demand["a"].tolist() == [2, 3, 4]

    def test_mappings_and_samples_are_read_only(self):
        history = HistoryDataset(demand={"a": [1, 2]},
                                 lead_delta={"a": [0]})
        with pytest.raises(TypeError):
            history.demand["b"] = np.array([1])
        with pytest.raises(TypeError):
            history.lead_delta["a"] = np.array([1])
        with pytest.raises(ValueError):
            history.demand["a"][0] = 7
        assert set(history.demand) == {"a"}

    @pytest.mark.parametrize("samples,message", [
        ([], "nonempty 1-D"),
        ([[1, 2]], "nonempty 1-D"),
        ([-1], "nonnegative"),
        ([10**20], "fit in int64"),
    ], ids=["empty", "2-D", "negative", "beyond-int64"])
    def test_bad_samples_rejected(self, samples, message):
        with pytest.raises(ValueError, match=f"facility a: .*{message}"):
            HistoryDataset(demand={"a": samples}, lead_delta={"a": [0]})

    @pytest.mark.parametrize("series,message", [
        ("demand", "no demand history for customer facility 4"),
        ("lead_delta", "no lead-delta history for facility 4"),
    ])
    def test_require_covers_names_the_missing_series(self, series,
                                                     message):
        net = five_facility_network()
        full = {fid: [1] for fid in net.ids}
        HistoryDataset(demand=full, lead_delta=full).require_covers(net)
        partial = {fid: [1] for fid in net.ids if fid != "4"}
        history = HistoryDataset(**{"demand": full, "lead_delta": full,
                                    series: partial})
        with pytest.raises(ValueError, match=message):
            history.require_covers(net)

    def test_pickle_round_trip_keeps_every_series_read_only(self):
        history = HistoryDataset(demand={"a": [1, 2], "b": [7]},
                                 lead_delta={"a": [0, 3], "b": [1]})
        copy = pickle.loads(pickle.dumps(history))
        assert copy is not history
        for series in ("demand", "lead_delta"):
            want, got = getattr(history, series), getattr(copy, series)
            assert {k: v.tolist() for k, v in got.items()} == \
                {k: v.tolist() for k, v in want.items()}
            with pytest.raises(TypeError):
                got["c"] = np.array([1])
            for samples in got.values():
                assert samples.dtype == np.int64
                with pytest.raises(ValueError):
                    samples[0] = 9

    def test_equality_and_hash_are_by_identity(self):
        def make():
            return HistoryDataset(demand={"a": [1, 2]},
                                  lead_delta={"a": [0]})
        first, second = make(), make()
        assert first == first and first != second
        assert len({first, second, first}) == 2
