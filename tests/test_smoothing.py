import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from physiobias.smoothing import (
    final_label,
    location_summary,
    majority_window_location,
    runs,
    smooth,
    smooth_with_trace,
)

label_sequences = st.lists(st.integers(0, 1), min_size=1, max_size=60)


def seq(text: str) -> list[int]:
    return [int(ch) for ch in text]


class TestRuns:
    def test_decomposition(self):
        rs = runs(seq("110100"))
        assert rs == [(1, 2), (0, 1), (1, 1), (0, 2)]

    def test_tiles_exactly(self):
        rs = runs(seq("0010111"))
        assert sum(length for _, length in rs) == 7
        assert all(a[0] != b[0] for a, b in zip(rs, rs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            runs([])


# Hand-traced under the documented pass rules: sequential left-to-right
# merging with immediate re-derivation; boundary runs absorb into their
# single neighbor; stop below three runs, or when all runs are longer than
# the original mean run length.
PINNED = [
    ("1101", "1111"),            # canonical example
    ("000110000", "000000000"),  # length-2 run flanked by zeros, pass k=2
    ("0000", "0000"),            # single run: untouched
    ("0101", "1111"),            # leading boundary run absorbed first
    ("1010", "0000"),
    ("0110", "1111"),            # boundary merges dominate short sequences
    ("00110011", "11111111"),
    ("0001100", "0000000"),
    ("110100", "111100"),        # merge stops at two runs
    ("01", "01"),                # two-run fixed point
    ("0010", "0000"),
    ("011010", "111111"),
    ("000011110000", "111111111111"),  # equal thirds collapse at pass k=4
    ("0000011000000111", "0000000000000111"),  # run count reaches 2, k=2
    ("0011", "0011"),            # two-run fixed point (tie case for verdict)
    ("0", "0"),
    ("10", "10"),
]


class TestSmooth:
    @pytest.mark.parametrize("before, after", PINNED)
    def test_pinned_table(self, before, after):
        assert smooth(seq(before)) == seq(after)

    def test_trace_lines(self):
        smoothed, trace = smooth_with_trace(seq("1101"))
        assert smoothed == seq("1111")
        assert trace[0] == "original: 1x2 0x1 1x1"
        assert trace[1] == "pass 1: 1x4"

    @settings(max_examples=500, deadline=None)
    @given(label_sequences)
    def test_length_preserved(self, labels):
        assert len(smooth(labels)) == len(labels)

    @settings(max_examples=500, deadline=None)
    @given(label_sequences)
    def test_run_count_never_increases(self, labels):
        assert len(runs(smooth(labels))) <= len(runs(labels))

    @settings(max_examples=500, deadline=None)
    @given(label_sequences)
    def test_two_run_sequences_are_fixed_points(self, labels):
        if len(runs(labels)) <= 2:
            assert smooth(labels) == list(labels)

    @settings(max_examples=500, deadline=None)
    @given(label_sequences)
    def test_conservative(self, labels):
        out = smooth(labels)
        present = set(labels)
        assert set(out) <= present
        if len(present) == 1:
            assert out == list(labels)


def day_sequence() -> list[int]:
    """17,280 windows (a day of 5 s windows) in about 3,000 alternating runs
    of geometric length."""
    rng = np.random.default_rng(16)
    lengths = rng.geometric(3_000 / 17_280, size=4_000)
    return np.repeat(np.arange(lengths.size) % 2, lengths)[:17_280].tolist()


class TestAgainstOracle:
    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_random_sequences(self, alphabet):
        rng = np.random.default_rng(alphabet)
        for i in range(3_000):
            n = int(rng.integers(1, 61))
            if i % 2:  # independent labels: mostly short runs
                labels = rng.integers(0, alphabet, n).tolist()
            else:  # runs of 1-6 windows
                lengths = rng.integers(1, 7, n)
                labels = np.repeat(rng.integers(0, alphabet, n), lengths)[:n].tolist()
            assert smooth_with_trace(labels) == oracles.o_smooth_with_trace(labels), labels

    def test_day_sequence(self):
        labels = day_sequence()
        assert 2_900 <= len(runs(labels)) <= 3_100
        assert smooth_with_trace(labels) == oracles.o_smooth_with_trace(labels)

    def test_day_sequence_in_linear_time(self):
        # A pass that re-derives the runs after every merge takes seconds on
        # this sequence; one sweep of the run list per pass, milliseconds.
        labels = day_sequence()
        start = time.perf_counter()
        smooth_with_trace(labels)
        assert time.perf_counter() - start < 0.5


class TestFinalLabel:
    def test_longest_run_wins(self):
        assert final_label(seq("0011111100")) == 1

    def test_uniform(self):
        assert final_label(seq("0000")) == 0

    def test_tie_equal_mass_goes_to_one(self):
        assert final_label(seq("0011")) == 1

    def test_tie_broken_by_mass(self):
        # longest runs tie at 2 but zeros dominate the sequence
        assert final_label(seq("001100")) == 0
        assert final_label(seq("0110111")) == 1


class TestMajorityWindowLocation:
    def test_end(self):
        probs = [0.2] * 85 + [0.9] * 10 + [0.2] * 5
        assert majority_window_location(probs, 1) == "end"

    def test_start(self):
        probs = [0.9] * 10 + [0.2] * 90
        assert majority_window_location(probs, 1) == "start"

    def test_verdict_absent(self):
        with pytest.raises(ValueError):
            majority_window_location([0.1, 0.2, 0.3], 1)
        with pytest.raises(ValueError):
            majority_window_location([0.5, 0.9], 0)

    def test_rise_inside_an_all_verdict_sequence(self):
        # every window is flagged, so one smoothed run spans the sequence;
        # the probabilities still place the response at the end
        probs = [0.6] * 40 + [0.7] * 30 + [0.95] * 30
        assert majority_window_location(probs, 1) == "end"

    def test_verdict_zero_reads_the_complement(self):
        probs = [0.4] * 20 + [0.05] * 20 + [0.4] * 20
        assert majority_window_location(probs, 0) == "middle"

    def test_first_third_wins_ties(self):
        assert majority_window_location([0.8] * 9, 1) == "start"
        assert majority_window_location([0.2, 0.8, 0.2, 0.2, 0.8, 0.2], 1) == "start"

    def test_short_sequences_skip_empty_thirds(self):
        assert majority_window_location([0.7], 1) == "start"
        assert majority_window_location([0.6, 0.9], 1) == "middle"


class TestLocationSummary:
    def test_simple_ratio(self):
        frac = location_summary(
            ["end", "end", "middle"], [1, 1, 1], [1, 1, 1]
        )
        assert frac == pytest.approx(2.0 / 3.0)

    def test_only_correct_biased_count(self):
        frac = location_summary(
            ["end", "end", "end", "start"],
            [1, 0, 1, 1],
            [1, 1, 0, 1],
        )
        # rows 2 and 3 are verdict!=truth or truth 0; rows 0 and 3 qualify
        assert frac == pytest.approx(0.5)

    def test_undefined_when_no_correct_biased(self):
        assert location_summary(["end"], [0], [1]) is None
