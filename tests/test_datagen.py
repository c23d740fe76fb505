"""Synthetic telemetry generation: schemas, mixes, determinism, intensity."""

from types import SimpleNamespace

import numpy as np
import pytest

from secflow import datagen
from secflow.datagen import (
    ATTACK_LABELS,
    CLF_FEATURES,
    DataConfigError,
    Dataset,
    DatasetKind,
    LABELS,
    NORMAL,
    NTD_FEATURES,
    StratificationError,
    dataset_from_csv,
    generate,
    split,
    with_metadata,
)


class TestSchemas:
    def test_ntd_has_eight_documented_features(self):
        assert NTD_FEATURES == (
            "duration",
            "protocol_type",
            "src_bytes",
            "dst_bytes",
            "packet_count",
            "srv_count",
            "serror_rate",
            "same_srv_rate",
        )

    def test_clf_has_three_documented_features(self):
        assert CLF_FEATURES == ("cpu_util", "ram_util", "bw_util")


class TestGenerate:
    def test_pure_normal_mix(self):
        ds = generate(DatasetKind.NTD, 100, {NORMAL: 1.0}, seed=1)
        assert len(ds) == 100
        assert set(ds.labels) == {NORMAL}
        assert np.all(ds.intensity == 0.0)

    def test_same_seed_byte_identical_csv(self):
        a = generate(DatasetKind.CLF, 500, {NORMAL: 0.5, "dos": 0.5}, seed=7)
        b = generate(DatasetKind.CLF, 500, {NORMAL: 0.5, "dos": 0.5}, seed=7)
        assert a.to_csv() == b.to_csv()
        assert a.metadata_csv() == b.metadata_csv()

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DataConfigError):
            generate(DatasetKind.NTD, 10, {NORMAL: 0.5, "dos": 0.4}, seed=0)

    def test_zero_records_rejected(self):
        with pytest.raises(DataConfigError):
            generate(DatasetKind.NTD, 0, {NORMAL: 1.0}, seed=0)

    def test_unknown_label_rejected(self):
        with pytest.raises(DataConfigError):
            generate(DatasetKind.NTD, 10, {"worm": 1.0}, seed=0)

    # the negative and the bool fraction each make the fractions sum to 1
    @pytest.mark.parametrize("normal, frac", [(1.5, -0.5), (0.0, float("nan")), (0.0, True)],
                             ids=["negative", "nan", "bool"])
    def test_fraction_not_finite_nonnegative_number_rejected(self, normal, frac):
        mix = {NORMAL: normal, "dos": frac}
        with pytest.raises(DataConfigError,
                           match=f"fraction of 'dos' must be a finite number >= 0, got {frac}"):
            generate(DatasetKind.NTD, 10, mix, seed=0)

    def test_unknown_intensity_mode_rejected(self):
        with pytest.raises(DataConfigError, match="unknown intensity_mode 'xyz'"):
            generate(DatasetKind.NTD, 10, {NORMAL: 0.5, "dos": 0.5}, seed=0,
                     intensity_mode="xyz")

    def test_attack_records_carry_positive_intensity(self):
        ds = generate(DatasetKind.NTD, 400, {NORMAL: 0.5, "probe": 0.5}, seed=3)
        attack = ds.intensity[ds.labels == "probe"]
        normal = ds.intensity[ds.labels == NORMAL]
        assert np.all(attack > 0)
        assert np.all(attack <= 1)
        assert np.all(normal == 0)

    def test_stump_separates_normal_from_dos(self):
        # a depth-1 threshold on the most separated feature reaches >= 0.95
        ds = generate(DatasetKind.NTD, 10000, {NORMAL: 0.7, "dos": 0.3}, seed=42)
        y = (ds.labels == "dos").astype(int)
        best_acc = 0.0
        for f in range(ds.X.shape[1]):
            vals = ds.X[:, f]
            for thr in np.quantile(vals, np.linspace(0.05, 0.95, 19)):
                pred = (vals > thr).astype(int)
                acc = max(np.mean(pred == y), np.mean((1 - pred) == y))
                best_acc = max(best_acc, acc)
        assert best_acc >= 0.95

    def test_intensity_monotone_signature_features(self):
        ds = generate(DatasetKind.NTD, 8000, {"dos": 1.0}, seed=11)
        f = list(ds.feature_names).index("packet_count")
        deciles = np.quantile(ds.intensity, np.linspace(0, 1, 11))
        means = []
        for lo, hi in zip(deciles[:-1], deciles[1:]):
            mask = (ds.intensity >= lo) & (ds.intensity <= hi)
            means.append(ds.X[mask, f].mean())
        assert all(a < b for a, b in zip(means[:-1], means[1:]))

    def test_csv_has_no_intensity_column(self):
        ds = generate(DatasetKind.CLF, 50, {NORMAL: 0.5, "r2l": 0.5}, seed=5)
        header = ds.to_csv().splitlines()[0]
        assert header == ",".join(CLF_FEATURES) + ",label"
        assert "intensity" not in ds.to_csv()

    def test_banded_mode_clusters_intensity(self):
        ds = generate(
            DatasetKind.CLF, 3000, {"u2r": 1.0}, seed=9, intensity_mode="banded"
        )
        centers = np.array([1 / 6, 1 / 2, 5 / 6])
        dist = np.min(np.abs(ds.intensity[:, None] - centers[None, :]), axis=1)
        assert np.all(dist <= 0.05 + 1e-12)


class TestCsvRoundTrip:
    def test_round_trip_with_metadata(self):
        ds = generate(DatasetKind.NTD, 200, {NORMAL: 0.5, "dos": 0.5}, seed=2)
        restored = with_metadata(dataset_from_csv(DatasetKind.NTD, ds.to_csv()), ds.metadata_csv())
        np.testing.assert_allclose(restored.X, ds.X)
        assert list(restored.labels) == list(ds.labels)
        np.testing.assert_allclose(restored.intensity, ds.intensity)

    def test_wrong_header_rejected(self):
        with pytest.raises(DataConfigError):
            dataset_from_csv(DatasetKind.CLF, "a,b,label\n1,2,normal\n")

    def test_empty_text_rejected(self):
        with pytest.raises(DataConfigError, match="empty clf CSV"):
            dataset_from_csv(DatasetKind.CLF, "")

    @pytest.mark.parametrize("rows, message", [
        ("0.1,0.2,0.3,normal\n0.5,dos\n", "clf row 1: 2 fields, header has 4"),
        ("0.1,0.2,0.3,0.4,normal\n", "clf row 0: 5 fields, header has 4"),
    ])
    def test_row_field_count_must_match_header(self, rows, message):
        with pytest.raises(DataConfigError, match=message):
            dataset_from_csv(DatasetKind.CLF, "cpu_util,ram_util,bw_util,label\n" + rows)

    @pytest.mark.parametrize("rows, message", [
        ("0.1,0.2,0.3,normal\n0.5,inf,0.3,dos\n",
         "clf row 1, column ram_util: non-finite value 'inf'"),
        ("0.1,0.2,nan,normal\n", "clf row 0, column bw_util: non-finite value 'nan'"),
        ("-Infinity,0.2,0.3,normal\n", "clf row 0, column cpu_util: non-finite value '-Infinity'"),
    ])
    def test_non_finite_value_rejected(self, rows, message):
        with pytest.raises(DataConfigError, match=message):
            dataset_from_csv(DatasetKind.CLF, "cpu_util,ram_util,bw_util,label\n" + rows)

    @pytest.mark.parametrize("rows, message", [
        ("0.1,0.2,0.3,normal\n0.5,0.2,0.3,zzz\n",
         "clf row 1: label 'zzz' is not one of normal, dos, probe, u2r, r2l"),
        ("0.1,0.2,0.3,Normal\n", "clf row 0: label 'Normal' is not one of"),
        ("0.1,0.2,0.3,normal\n0.5,xyz,0.3,dos\n", "clf row 1, column ram_util: not a number 'xyz'"),
        ("0.1,0.2,,normal\n", "clf row 0, column bw_util: not a number ''"),
    ], ids=["label", "label-case", "cell", "empty-cell"])
    def test_unknown_label_or_non_numeric_cell_rejected(self, rows, message):
        """`split` would drop a row whose label is not in LABELS without a word."""
        with pytest.raises(DataConfigError, match=message):
            dataset_from_csv(DatasetKind.CLF, "cpu_util,ram_util,bw_util,label\n" + rows)

    @pytest.mark.parametrize("line, reason", [
        ("x,0.5", "expected an integer row and a number"),
        ("0.5,0.5", "expected an integer row and a number"),
        ("0,high", "expected an integer row and a number"),
        ("-1,0.5", r"row outside \[0, 2\)"),
        ("2,0.5", r"row outside \[0, 2\)"),
        ("0", "1 fields, expected 2"),
        ("0,0.5,0.5", "3 fields, expected 2"),
        ("0,inf", r"intensity outside \[0, 1\]"),
        ("0,nan", r"intensity outside \[0, 1\]"),
        ("0,1.5", r"intensity outside \[0, 1\]"),
        ("0,-0.25", r"intensity outside \[0, 1\]"),
        ("1,0.9", "row 1 listed twice"),
    ])
    def test_bad_metadata_line_rejected(self, line, reason):
        rows = "cpu_util,ram_util,bw_util,label\n0.1,0.2,0.3,normal\n0.4,0.5,0.6,dos\n"
        meta = f"row,intensity\n1,0.25\n{line}\n"
        message = f"clf metadata line 3 {line!r}: {reason}"
        with pytest.raises(DataConfigError, match=message):
            with_metadata(dataset_from_csv(DatasetKind.CLF, rows), meta)

    def test_unlisted_row_rejected(self):
        rows = "cpu_util,ram_util,bw_util,label\n0.1,0.2,0.3,dos\n0.4,0.5,0.6,dos\n"
        with pytest.raises(DataConfigError) as exc:
            with_metadata(dataset_from_csv(DatasetKind.CLF, rows), "row,intensity\n0,0.2\n")
        assert str(exc.value) == "clf metadata: no line for row 1"

    @pytest.mark.parametrize("meta, got", [
        ("", "''"),
        ("0,0.25\n1,0.5\n", "'0,0.25'"),
        ("row;intensity\n0,0.25\n", "'row;intensity'"),
    ], ids=["empty", "no-header", "other-header"])
    def test_metadata_header_required(self, meta, got):
        rows = "cpu_util,ram_util,bw_util,label\n0.1,0.2,0.3,normal\n0.4,0.5,0.6,dos\n"
        with pytest.raises(DataConfigError) as exc:
            with_metadata(dataset_from_csv(DatasetKind.CLF, rows), meta)
        assert str(exc.value) == ("clf metadata line 1: expected the header 'row,intensity', "
                                  f"got {got}")

    def test_metadata_bounds_are_inclusive(self):
        rows = "cpu_util,ram_util,bw_util,label\n0.1,0.2,0.3,normal\n0.4,0.5,0.6,dos\n"
        ds = with_metadata(dataset_from_csv(DatasetKind.CLF, rows), "row,intensity\n0,0.0\n1,1.0\n")
        assert ds.intensity.tolist() == [0.0, 1.0]


class TestSplit:
    def test_sizes_80_20(self):
        ds = generate(DatasetKind.NTD, 100, {NORMAL: 1.0}, seed=0)
        train, test = split(ds, 0.8, seed=0)
        assert (len(train), len(test)) == (80, 20)

    def test_label_proportions_preserved(self):
        mix = {NORMAL: 0.5, "dos": 0.25, "probe": 0.25}
        ds = generate(DatasetKind.NTD, 1000, mix, seed=4)
        train, test = split(ds, 0.7, seed=4)
        for label in mix:
            total = np.sum(ds.labels == label)
            got = np.sum(train.labels == label)
            assert abs(got - round(total * 0.7)) <= 1

    def test_disjoint_union(self):
        ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "u2r": 0.5}, seed=8)
        train, test = split(ds, 0.6, seed=8)
        assert len(train) + len(test) == len(ds)
        all_rows = np.vstack([train.X, test.X])
        assert sorted(map(tuple, all_rows)) == sorted(map(tuple, ds.X))

    def test_same_seed_identical_split(self):
        ds = generate(DatasetKind.CLF, 300, {NORMAL: 0.5, "u2r": 0.5}, seed=8)
        a = split(ds, 0.6, seed=1)
        b = split(ds, 0.6, seed=1)
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].X, b[1].X)

    def test_rare_label_raises_stratification_error(self):
        crafted = Dataset(
            DatasetKind.CLF,
            CLF_FEATURES,
            np.zeros((6, 3)),
            np.array([NORMAL] * 5 + ["dos"]),
            np.array([0.0] * 5 + [0.5]),
        )
        with pytest.raises(StratificationError):
            split(crafted, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        ds = generate(DatasetKind.CLF, 10, {NORMAL: 1.0}, seed=0)
        with pytest.raises(DataConfigError):
            split(ds, 1.0, seed=0)


def test_all_attack_labels_have_signatures_in_both_kinds():
    for kind in DatasetKind:
        for label in ATTACK_LABELS:
            ds = generate(kind, 50, {label: 1.0}, seed=1)
            assert set(ds.labels) == {label}


def _reference_row(kind, label, intensity, rng):
    """One row of the column-by-column array draw: the batch draw with n = 1,
    written out from the distribution's source tables."""
    base = datagen._NTD_BASE if kind is DatasetKind.NTD else datagen._CLF_BASE
    sig = datagen.SIGNATURES[kind].get(label, {})
    intensity = np.array([intensity])
    cols = []
    for name in datagen.FEATURES[kind]:
        if base[name] is None:
            cols.append(rng.integers(0, 3, size=1).astype(float))
            continue
        mean, sd = base[name]
        shift = np.zeros(1)
        if name in sig:
            offset, slope = sig[name]
            shift = offset + slope * intensity
        col = np.maximum(rng.normal(mean + shift, sd), 0.0)
        if name in datagen._UNIT_FEATURES:
            col = np.minimum(col, 1.0)
        cols.append(col)
    return np.column_stack(cols)[0]


@pytest.mark.parametrize("kind", list(DatasetKind))
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("mode", ["uniform", "banded"])
def test_scalar_draw_matches_one_row_of_the_array_draw(kind, label, mode):
    n = 40
    intensities = (np.zeros(n) if label == NORMAL
                   else datagen._draw_intensity(np.random.default_rng(3), n, mode))
    scalar, batch = np.random.default_rng(11), np.random.default_rng(11)
    for intensity in intensities:
        record = datagen.sample_features(kind, label, float(intensity), scalar)
        assert all(type(v) is float for v in record)
        assert record == _reference_row(kind, label, intensity, batch).tolist()
    # the whole state, with the 32-bit half `integers(0, 3)` leaves buffered
    assert scalar.bit_generator.state == batch.bit_generator.state


def test_scalar_draw_clamps_at_both_bounds():
    """At intensity 1.0, NTD probe records floor serror_rate at 0.0 and CLF
    r2l records cap ram_util at 1.0; each record still equals the array
    draw's row. protocol_type, whose values include 0.0 and 1.0, is left out
    of both counts."""
    floored = capped = 0
    for kind, label in ((DatasetKind.NTD, "probe"), (DatasetKind.CLF, "r2l")):
        scalar, batch = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(300):
            record = datagen.sample_features(kind, label, 1.0, scalar)
            assert record == _reference_row(kind, label, 1.0, batch).tolist()
            for name, value in zip(datagen.FEATURES[kind], record):
                if name == "protocol_type":
                    continue
                floored += value == 0.0
                capped += name in datagen._UNIT_FEATURES and value == 1.0
    assert floored > 0
    assert capped > 0


def test_protocol_draw_leaves_the_state_of_integers():
    """NTD records interleaved with CLF records and `random()` calls. Each NTD
    record draws one 32-bit word for protocol_type, so PCG64's other half is
    left buffered after an odd count of them and empty after an even one,
    and the 64-bit draws between them keep it. After every step the whole
    state equals that of a twin drawing protocol_type with `integers(0, 3)`
    between an NTD record's one-value and six-value normal blocks."""
    ours, twin = np.random.default_rng(21), np.random.default_rng(21)
    steps = np.random.default_rng(22)
    buffered = set()
    for _ in range(600):
        step = int(steps.integers(3))
        if step == 0:
            record = datagen.sample_features(DatasetKind.NTD, "probe", 0.5, ours)
            twin.standard_normal()
            assert record[1] == float(twin.integers(0, 3))
            twin.standard_normal(6)
        elif step == 1:
            record = datagen.sample_features(DatasetKind.CLF, NORMAL, 0.0, ours)
            assert record == _reference_row(DatasetKind.CLF, NORMAL, 0.0, twin).tolist()
        else:
            assert ours.random() == twin.random()
        assert ours.bit_generator.state == twin.bit_generator.state
        buffered.add(ours.bit_generator.state["has_uint32"])
    assert buffered == {0, 1}


def test_protocol_draw_rejects_a_zero_low_word():
    """Lemire's step for range 3 rejects a word whose product with 3 has a
    low word below (2**32 - 3) % 3 == 1, which only the word 0 has; the next
    word, 2**31, gives (3 * 2**31) >> 32 == 1. No generator can be steered to
    a zero word, so the words come from a stand-in."""
    words = iter([0, 2 ** 31, 5])
    rng = SimpleNamespace(
        bit_generator=SimpleNamespace(ctypes=SimpleNamespace(
            state=None, next_uint32=lambda state: next(words))),
        standard_normal=lambda size=None: 0.0 if size is None else np.zeros(size))
    record = datagen.sample_features(DatasetKind.NTD, NORMAL, 0.0, rng)
    assert record[1] == 1.0
    assert next(words) == 5
