import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physiobias.errors import (
    BadParticipantId,
    EmptySignal,
    InsufficientData,
    LabelError,
    MissingChannel,
    ParseError,
)
from physiobias.ingest import (
    CANONICAL_CATEGORIES,
    CHANNEL_FILES,
    Bias,
    assemble_session,
    load_labels,
    map_iat_category,
    parse_e4_csv,
    write_e4_csv,
)
from physiobias.signals import Signal, TriaxialSignal


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
        assert isinstance(acc, TriaxialSignal)
        assert tuple(acc.samples[0]) == (1.0, 0.0, 0.0)

    def test_empty_body(self, tmp_path):
        f = tmp_path / "EDA.csv"
        f.write_text("1.0\n4.0\n")
        with pytest.raises(EmptySignal):
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

    @settings(max_examples=50, deadline=None)
    @given(
        start=st.integers(1_500_000_000, 1_700_000_000),
        rate=st.sampled_from([1.0, 4.0, 32.0, 64.0]),
        values=st.lists(
            st.floats(-100, 100, allow_nan=False, width=32), min_size=1, max_size=40
        ),
    )
    def test_round_trip(self, tmp_path_factory, start, rate, values):
        path = tmp_path_factory.mktemp("rt") / "EDA.csv"
        sig = Signal(float(start), rate, np.asarray(values, dtype=float))
        write_e4_csv(sig, path)
        back = parse_e4_csv(path, "EDA")
        assert back.start_time == sig.start_time
        assert back.rate == sig.rate
        assert np.array_equal(back.samples, sig.samples)

    def test_acc_round_trip(self, tmp_path):
        path = tmp_path / "ACC.csv"
        counts = np.array([[64, 0, 0], [-32, 16, 5], [1, 2, 3]], dtype=float)
        acc = TriaxialSignal(1.5e9, 32.0, counts / 64.0)
        write_e4_csv(acc, path)
        back = parse_e4_csv(path, "ACC")
        assert np.array_equal(back.samples, acc.samples)


class TestIatMapping:
    def test_strong_is_biased(self):
        assert map_iat_category("strong preference for White").value == Bias.BIASED

    def test_no_preference_is_unbiased(self):
        assert map_iat_category("no preference").value == Bias.UNBIASED

    def test_unknown_category(self):
        with pytest.raises(LabelError):
            map_iat_category("mild preference")

    def test_empty_category(self):
        with pytest.raises(LabelError):
            map_iat_category("  ")

    def test_case_insensitive(self):
        assert map_iat_category("Moderate preference for Black").value == Bias.BIASED

    def test_total_and_partitions_evenly(self):
        labels = [map_iat_category(c) for c in CANONICAL_CATEGORIES]
        assert len(CANONICAL_CATEGORIES) == 8
        assert sum(1 for l in labels if l.value == Bias.BIASED) == 4
        assert sum(1 for l in labels if l.value == Bias.UNBIASED) == 4


class TestLoadLabels:
    def test_reads_table(self, tmp_path):
        f = tmp_path / "labels.csv"
        f.write_text(
            "participant_id,iat_category\nP1,strong preference for White\nP2,no preference\n"
        )
        labels = load_labels(f)
        assert labels["P1"].value == Bias.BIASED
        assert labels["P2"].value == Bias.UNBIASED

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
        assert session.label.value == Bias.BIASED
        assert session.participant_id == "P1"
