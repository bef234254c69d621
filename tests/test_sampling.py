from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelonopt.model import SOURCE, FacilitySpec, NetworkSpec
from echelonopt.sampling import (
    EmptyHistoryError,
    HistoryGenParams,
    InvalidParamsError,
    SeriesParams,
    StreamKey,
    StreamPurpose,
    bootstrap_draw,
    generate_synthetic_history,
)


def two_facility_network():
    return NetworkSpec([
        FacilitySpec("hub", SOURCE, 2, 0.0, False),
        FacilitySpec("store", "hub", 1, 0.9, True),
    ])


class TestBootstrap:
    def test_singleton_support(self):
        rng = np.random.default_rng(0)
        assert bootstrap_draw([7], rng) == 7

    def test_empty_history_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EmptyHistoryError):
            bootstrap_draw([], rng)
        with pytest.raises(EmptyHistoryError):
            bootstrap_draw([], rng, 5)

    def test_uniform_frequencies_within_three_sigma(self):
        # 1e5 draws over {2,4,6}: each frequency within 3 binomial sigmas
        # of 1/3, sigma = sqrt((1/3)(2/3)/n) ~ 0.00149.
        n = 100_000
        rng = StreamKey(12345, 1, "store", StreamPurpose.DEMAND).generator()
        draws = bootstrap_draw([2, 4, 6], rng, n)
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        for value in (2, 4, 6):
            freq = np.mean(draws == value)
            assert abs(freq - 1 / 3) < 3 * sigma

    @pytest.mark.parametrize("n", [1, 2, 5, 7, 360, 1000])
    def test_block_draws_equal_scalar_draws(self, n):
        # The engine prefetches each lead stream as one block in place of
        # one draw per shipment; the common random numbers stay the same
        # only while a block, also one continued in a second call,
        # reproduces the scalar sequence.
        samples = np.arange(n) * 3
        key = StreamKey(7, 2, "store", StreamPurpose.LEAD)
        scalar_rng = key.generator()
        scalar = [bootstrap_draw(samples, scalar_rng) for _ in range(400)]
        block = bootstrap_draw(samples, key.generator(), 400)
        assert block.tolist() == scalar
        chunked_rng = key.generator()
        chunks = (bootstrap_draw(samples, chunked_rng, 150).tolist()
                  + bootstrap_draw(samples, chunked_rng, 250).tolist())
        assert chunks == scalar

    def test_same_stream_key_reproduces_sequence(self):
        key = StreamKey(99, 3, "store", StreamPurpose.LEAD)
        first = bootstrap_draw([1, 2, 3, 4], key.generator(), 50)
        second = bootstrap_draw([1, 2, 3, 4], key.generator(), 50)
        assert np.array_equal(first, second)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_draws_stay_in_empirical_support(self, samples, seed):
        rng = np.random.default_rng(seed)
        support = set(samples)
        for value in bootstrap_draw(samples, rng, 40):
            assert int(value) in support

    def test_streams_are_separated(self):
        # Draining one stream must not shift another stream's draws.
        base, rep = 7, 2
        demand_key = StreamKey(base, rep, "A", StreamPurpose.DEMAND)
        lead_key = StreamKey(base, rep, "B", StreamPurpose.LEAD)

        undisturbed = bootstrap_draw(range(1000),
                                     demand_key.generator(), 100)
        lead_rng = lead_key.generator()
        demand_rng = demand_key.generator()
        interleaved = []
        for _ in range(100):
            bootstrap_draw(range(1000), lead_rng)
            interleaved.append(bootstrap_draw(range(1000), demand_rng))
        assert np.array_equal(undisturbed, np.array(interleaved))

    def test_distinct_keys_give_distinct_streams(self):
        samples = range(10_000)
        keys = [
            StreamKey(1, 1, "A", StreamPurpose.DEMAND),
            StreamKey(1, 1, "A", StreamPurpose.LEAD),
            StreamKey(1, 1, "B", StreamPurpose.DEMAND),
            StreamKey(1, 2, "A", StreamPurpose.DEMAND),
            StreamKey(2, 1, "A", StreamPurpose.DEMAND),
            # seeds and replications past 64 and 32 bits do not wrap
            StreamKey(1 + 2**64, 1, "A", StreamPurpose.DEMAND),
            StreamKey(1, 1 + 2**32, "A", StreamPurpose.DEMAND),
        ]
        seqs = [tuple(bootstrap_draw(samples, k.generator(), 20))
                for k in keys]
        assert len(set(seqs)) == len(seqs)


class TestSyntheticHistory:
    def params(self, mean=50.0, spread=0.0, length=360):
        return HistoryGenParams(
            demand={"store": SeriesParams(mean, spread)},
            lead_delta={"hub": SeriesParams(1, 1),
                        "store": SeriesParams(1, 1)},
            length=length)

    def test_degenerate_distribution_is_constant(self):
        hist = generate_synthetic_history(two_facility_network(),
                                          self.params(50.0, 0.0), seed=1)
        assert np.all(hist.demand["store"] == 50)
        assert len(hist.demand["store"]) == 360

    def test_same_seed_same_dataset(self):
        net = two_facility_network()
        p = self.params(100.0, 20.0)
        a = generate_synthetic_history(net, p, seed=11)
        b = generate_synthetic_history(net, p, seed=11)
        assert np.array_equal(a.demand["store"], b.demand["store"])
        for fid in ("hub", "store"):
            assert np.array_equal(a.lead_delta[fid], b.lead_delta[fid])
        c = generate_synthetic_history(net, p, seed=12)
        assert not np.array_equal(a.demand["store"], c.demand["store"])

    def test_large_sample_mean_close_to_target(self):
        # n = 1e4, spread 20: standard error 0.2, so 1% of 100 is 5 SE.
        hist = generate_synthetic_history(
            two_facility_network(), self.params(100.0, 20.0, 10_000), seed=3)
        assert abs(hist.demand["store"].mean() - 100.0) < 1.0

    def test_samples_nonnegative(self):
        hist = generate_synthetic_history(
            two_facility_network(), self.params(2.0, 5.0, 2000), seed=5)
        assert (hist.demand["store"] >= 0).all()
        assert (hist.lead_delta["hub"] >= 0).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            SeriesParams(-1.0, 2.0)
        with pytest.raises(InvalidParamsError):
            SeriesParams(10.0, -0.5)
        with pytest.raises(InvalidParamsError):
            self.params(length=0)

    @pytest.mark.parametrize("spread", [0.0, 1.0])
    def test_draw_beyond_int64_rejected(self, spread):
        # 2**63 is the first float past int64; the float below it fits.
        net = two_facility_network()
        with pytest.raises(InvalidParamsError,
                           match=r"^generator\.demand\[store\]: .* int64"):
            generate_synthetic_history(net, self.params(2.0**63, spread),
                                       seed=1)
        below = np.nextafter(2.0**63, 0)
        hist = generate_synthetic_history(net, self.params(below), seed=1)
        assert hist.demand["store"][0] == int(below)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_history(two_facility_network(),
                                       self.params(50.0, 5.0), seed=-1)

    def test_missing_lead_delta_params_rejected(self):
        with pytest.raises(InvalidParamsError,
                           match="no lead-delta params for facility hub"):
            generate_synthetic_history(
                two_facility_network(),
                replace(self.params(), lead_delta={}), seed=1)

    def test_missing_facility_params_rejected(self):
        net = two_facility_network()
        with pytest.raises(InvalidParamsError):
            generate_synthetic_history(
                net, HistoryGenParams(demand={},
                                      lead_delta={"hub": SeriesParams(1, 1),
                                                  "store": SeriesParams(1, 1)}),
                seed=1)
