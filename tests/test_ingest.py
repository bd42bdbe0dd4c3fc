import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from physiobias import ingest
from physiobias.errors import (
    BadParticipantId,
    EmptySignal,
    InsufficientData,
    LabelError,
    MissingChannel,
    ParseError,
)
from physiobias.ingest import (
    CHANNEL_FILES,
    IAT_CATEGORIES,
    assemble_session,
    load_labels,
    map_iat_category,
    parse_e4_csv,
    write_e4_csv,
)
from physiobias.signals import Signal


def write_channel(path, start, rate, values, ncols=1):
    lines = [",".join([repr(float(start))] * ncols), ",".join([repr(float(rate))] * ncols)]
    for v in values:
        if ncols == 1:
            lines.append(repr(float(v)))
        else:
            lines.append(",".join(repr(float(c)) for c in v))
    path.write_text("\n".join(lines) + "\n")


class TestParseE4Csv:
    def test_header_semantics(self, tmp_path):
        f = tmp_path / "EDA.csv"
        write_channel(f, 1594920000.0, 4.0, range(8))
        sig = parse_e4_csv(f, "EDA")
        assert sig.start_time == 1594920000.0
        assert sig.rate == 4.0
        assert sig.samples.size == 8
        assert sig.duration == 2.0

    def test_acc_counts_to_g(self, tmp_path):
        f = tmp_path / "ACC.csv"
        f.write_text("1.0,1.0,1.0\n32.0,32.0,32.0\n64,0,0\n")
        acc = parse_e4_csv(f, "ACC")
        assert acc.samples.shape == (1, 3)
        assert tuple(acc.samples[0]) == (1.0, 0.0, 0.0)

    def test_empty_body(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n")
        with pytest.raises(EmptySignal):
            parse_e4_csv(f, "EDA")

    def test_header_only_file_is_empty_without_a_warning(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySignal, match=r"EDA\.csv: no data rows"):
                parse_e4_csv(f, "EDA")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path, end):
        lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
        text = "1.0,1.0,1.0\n32.0,32.0,32.0\n64,0,0\n\n-32,16,5\n"
        lf.write_text(text)
        other.write_bytes(text.replace("\n", end).encode())
        a, b = parse_e4_csv(lf, "ACC"), parse_e4_csv(other, "ACC")
        assert (a.start_time, a.rate) == (b.start_time, b.rate)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("body, message", [
        ("0.5\n1,2\n0.7\n", ":4: expected 1 column\\(s\\), got 2"),
        ("1,2\n1,2\n", ":3: expected 1 column\\(s\\), got 2"),
        ("0.5\n\n1_0\n", r":5: non-numeric row '1_0'"),
        ("0.5\n#\n", r":4: non-numeric row '#'"),
        ("0.5\n \t\n", r":4: non-numeric row ' \\t'"),
        ("0.5\n\u0661\n", r":4: non-numeric row"),
    ])
    def test_rows_loadtxt_rejects_report_their_line(self, tmp_path, body, message):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n" + body)
        with pytest.raises(ParseError, match=r"EDA\.csv" + message):
            parse_e4_csv(f, "EDA")

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("not-a-number\n4.0\n1.0\n")
        with pytest.raises(ParseError):
            parse_e4_csv(f, "EDA")

    def test_non_numeric_row_reports_line(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n0.5\nbogus\n0.7\n")
        with pytest.raises(ParseError, match=":4"):
            parse_e4_csv(f, "EDA")

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "ACC.csv"
        f.write_text("1.0,1.0,1.0\n32.0,32.0,32.0\n1,2\n")
        with pytest.raises(ParseError, match=":3"):
            parse_e4_csv(f, "ACC")

    def test_missing_header(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n")
        with pytest.raises(ParseError):
            parse_e4_csv(f, "EDA")

    def test_non_finite_sample_reports_its_line_after_blank_lines(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n0.5\n\n0.6\n\nnan\n0.7\n")
        with pytest.raises(ParseError, match=r"EDA\.csv:7: non-finite EDA sample"):
            parse_e4_csv(f, "EDA")

    @pytest.mark.parametrize("channel, body, line", [
        ("EDA", "0.5\n\n1e60\n", 5),
        ("EDA", "0.5\n-0.01\n", 4),
        ("EDA", "100.001\n", 3),
        ("TEMP", "33.0\n-40.5\n", 4),
        ("TEMP", "115.5\n", 3),
        ("ACC", "0,0,64\n0,128.5,0\n", 4),  # counts: 128 counts are 2 g
        ("ACC", "-129,0,0\n", 3),
    ])
    def test_sample_outside_plausible_range_reports_line_and_channel(
        self, tmp_path, channel, body, line
    ):
        f = tmp_path / f"{channel}.csv"
        header = "1.0,1.0,1.0\n32.0,32.0,32.0\n" if channel == "ACC" else "1.0\n4.0\n"
        f.write_text(header + body)
        with pytest.raises(ParseError, match=rf"{channel}\.csv:{line}: {channel} sample "
                                             r".* is outside the plausible range"):
            parse_e4_csv(f, channel)

    @pytest.mark.parametrize("channel, body", [
        ("EDA", "0\n0.0\n100\n"),  # 0 uS: lost skin contact
        ("TEMP", "-40\n115\n"),
        ("ACC", "128,-128,0\n"),
        ("BVP", "-1e60\n1e60\n"),
        ("HR", "0\n500\n"),
    ])
    def test_samples_within_range_parse(self, tmp_path, channel, body):
        f = tmp_path / f"{channel}.csv"
        header = "1.0,1.0,1.0\n32.0,32.0,32.0\n" if channel == "ACC" else "1.0\n4.0\n"
        f.write_text(header + body)
        assert parse_e4_csv(f, channel).samples.shape[0] == body.count("\n")

    @settings(max_examples=50, deadline=None)
    @given(
        start=st.integers(1_500_000_000, 1_700_000_000),
        rate=st.sampled_from([1.0, 4.0, 32.0, 64.0]),
        values=st.lists(
            st.floats(-100, 100, allow_nan=False, width=64), min_size=1, max_size=40
        ),
    )
    def test_round_trip(self, tmp_path_factory, start, rate, values):
        path = tmp_path_factory.mktemp("rt") / "BVP.csv"
        sig = Signal(float(start), rate, np.asarray(values, dtype=float))
        write_e4_csv(sig, path)
        back = parse_e4_csv(path, "BVP")
        assert back.start_time == sig.start_time
        assert back.rate == sig.rate
        assert np.array_equal(back.samples, sig.samples)

    def test_acc_round_trip(self, tmp_path):
        path = tmp_path / "ACC.csv"
        counts = np.array([[64, 0, 0], [-32, 16, 5], [1, 2, 3]], dtype=float)
        acc = Signal(1.5e9, 32.0, counts / 64.0)
        write_e4_csv(acc, path)
        back = parse_e4_csv(path, "ACC")
        assert np.array_equal(back.samples, acc.samples)


# Every float64: NaN, infinities, -0.0, subnormals and 1e+-300 included.
FLOAT64 = st.floats(width=64) | st.sampled_from(
    [-0.0, 5e-324, -2.225e-308, 1e-300, -1e300, 1.7976931348623157e308])


def _unchecked(start, rate, samples):
    """A signal holding any float64 samples: the writer formats what Signal
    would reject (NaN, 1e300) too, so they are set after construction."""
    sig = Signal(0.0, 1.0, [0.0])
    sig.start_time, sig.rate, sig.samples = start, rate, np.asarray(samples, dtype=float)
    return sig


class TestWriteE4Csv:
    """write_e4_csv writes the bytes of the one-string reference writer."""

    @staticmethod
    def assert_same_bytes(tmp, sig):
        # ACC counts: the float max times 64 overflows, a signaling NaN is invalid.
        with np.errstate(over="ignore", invalid="ignore"):
            write_e4_csv(sig, tmp / "new.csv")
            oracles.o_write_e4_csv(sig, tmp / "ref.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(start=FLOAT64, rate=FLOAT64, block=st.integers(1, 7),
           values=st.lists(FLOAT64, min_size=1, max_size=40))
    def test_single_column(self, tmp_path_factory, start, rate, block, values):
        with mock.patch.object(ingest, "WRITE_BLOCK_ROWS", block):
            self.assert_same_bytes(tmp_path_factory.mktemp("w"),
                                   _unchecked(start, rate, values))

    @settings(max_examples=100, deadline=None)
    @given(start=FLOAT64, rate=FLOAT64, block=st.integers(1, 7),
           rows=st.lists(st.tuples(FLOAT64, FLOAT64, FLOAT64), min_size=1, max_size=20))
    def test_acc_rows(self, tmp_path_factory, start, rate, block, rows):
        with mock.patch.object(ingest, "WRITE_BLOCK_ROWS", block):
            self.assert_same_bytes(tmp_path_factory.mktemp("w"),
                                   _unchecked(start, rate, rows))

    @pytest.mark.parametrize("ncols", [1, 3])
    def test_random_bits_over_several_blocks(self, tmp_path, ncols):
        n = 2 * ingest.WRITE_BLOCK_ROWS + 5
        bits = np.random.default_rng(0).bytes(8 * n * ncols)
        samples = np.frombuffer(bits, dtype=np.float64).reshape((n, ncols) if ncols > 1 else n)
        self.assert_same_bytes(tmp_path, _unchecked(1.6e9, 64.0, samples))


class TestIatMapping:
    def test_strong_is_biased(self):
        assert map_iat_category("strong preference for White") == 1

    def test_no_preference_is_unbiased(self):
        assert map_iat_category("no preference") == 0

    def test_unknown_category(self):
        with pytest.raises(LabelError):
            map_iat_category("mild preference")

    def test_empty_category(self):
        with pytest.raises(LabelError):
            map_iat_category("  ")

    def test_case_insensitive(self):
        assert map_iat_category("Moderate preference for Black") == 1

    def test_total_and_partitions_evenly(self):
        # synth draws its biased categories from the first four.
        assert len(set(IAT_CATEGORIES)) == 8
        assert [map_iat_category(c) for c in IAT_CATEGORIES] == [1] * 4 + [0] * 4


class TestLoadLabels:
    def test_reads_table(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_text(
            "participant_id,iat_category\nP1,strong preference for White\nP2,no preference\n"
        )
        labels = load_labels(f)
        assert labels == {"P1": 1, "P2": 0}

    def test_duplicate_participant(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_text("participant_id,iat_category\nP1,no preference\nP1,no preference\n")
        with pytest.raises(LabelError):
            load_labels(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_text("pid,category\nP1,no preference\n")
        with pytest.raises(ParseError):
            load_labels(f)


def write_session(tmp_path, pid, duration=40.0, offsets=None):
    offsets = offsets or {}
    d = tmp_path / pid
    d.mkdir()
    rng = np.random.default_rng(0)
    layouts = {
        "EDA.csv": (4.0, 1),
        "BVP.csv": (64.0, 1),
        "HR.csv": (1.0, 1),
        "TEMP.csv": (4.0, 1),
        "ACC.csv": (32.0, 3),
    }
    for name, (rate, ncols) in layouts.items():
        start = 100.0 + offsets.get(name, 0.0)
        n = int(duration * rate)
        if ncols == 1:
            write_channel(d / name, start, rate, rng.uniform(0, 1, n))
        else:
            write_channel(d / name, start, rate, rng.integers(-64, 64, (n, 3)), ncols=3)
    return d


LABELS = {"P1": map_iat_category("strong preference for Black")}


class TestAssembleSession:
    def test_alignment_trims_to_intersection(self, tmp_path):
        d = write_session(tmp_path, "P1", duration=40.0, offsets={"EDA.csv": -2.0})
        session = assemble_session(d, LABELS)
        # EDA started 2 s early: trimmed to the BVP start
        assert session.eda.start_time == 100.0
        assert session.eda.samples.size == 4 * 38  # only 38 s of EDA overlap remain

    def test_alignment_idempotent(self, tmp_path):
        d = write_session(tmp_path, "P1", duration=40.0)
        def sample_counts(session):
            return {name: getattr(session, name).samples.shape[0] for name in CHANNEL_FILES}

        counts = sample_counts(assemble_session(d, LABELS))
        assert sample_counts(assemble_session(d, LABELS)) == counts

    def test_missing_channel(self, tmp_path):
        d = write_session(tmp_path, "P1")
        (d / "HR.csv").unlink()
        with pytest.raises(MissingChannel, match="HR"):
            assemble_session(d, LABELS)

    def test_unlabeled_participant(self, tmp_path):
        d = write_session(tmp_path, "P9")
        with pytest.raises(LabelError):
            assemble_session(d, LABELS)

    def test_short_common_interval(self, tmp_path):
        d = write_session(tmp_path, "P1", duration=20.0)
        with pytest.raises(InsufficientData):
            assemble_session(d, LABELS)

    @pytest.mark.parametrize("pid", ["P,1", "P\n1", "P\r1", "#P1"])
    def test_id_that_breaks_features_csv_rejected(self, tmp_path, pid):
        d = write_session(tmp_path, pid)
        with pytest.raises(BadParticipantId):
            assemble_session(d, {pid: LABELS["P1"]})

    def test_label_attached(self, tmp_path):
        d = write_session(tmp_path, "P1")
        session = assemble_session(d, LABELS)
        assert session.label == 1
        assert session.participant_id == "P1"
