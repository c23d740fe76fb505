"""Synthetic labeled telemetry: network traffic data (NTD) and cloud log
files (CLF).

Records are drawn from class-conditional Gaussians. Attack records carry a
hidden ground-truth intensity in (0,1] that shifts the attack's signature
features; the intensity is emitted only to a companion metadata file and is
never visible to detectors.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

NORMAL = "normal"
ATTACK_LABELS = ("dos", "probe", "u2r", "r2l")
LABELS = (NORMAL,) + ATTACK_LABELS


class DatasetKind(enum.Enum):
    NTD = "ntd"
    CLF = "clf"

    __hash__ = object.__hash__  # identity, in C; see model.ActionKind


NTD_FEATURES = (
    "duration",
    "protocol_type",
    "src_bytes",
    "dst_bytes",
    "packet_count",
    "srv_count",
    "serror_rate",
    "same_srv_rate",
)
CLF_FEATURES = ("cpu_util", "ram_util", "bw_util")

FEATURES = {DatasetKind.NTD: NTD_FEATURES, DatasetKind.CLF: CLF_FEATURES}

# Baseline (normal-traffic) mean and standard deviation per feature.
_NTD_BASE = {
    "duration": (10.0, 3.0),
    "protocol_type": None,  # categorical, uniform over {0,1,2}
    "src_bytes": (500.0, 100.0),
    "dst_bytes": (800.0, 150.0),
    "packet_count": (100.0, 30.0),
    "srv_count": (10.0, 4.0),
    "serror_rate": (0.05, 0.03),
    "same_srv_rate": (0.7, 0.1),
}
_CLF_BASE = {
    "cpu_util": (0.25, 0.06),
    "ram_util": (0.30, 0.06),
    "bw_util": (0.30, 0.06),
}

# Per-attack signature shifts: feature -> (offset, slope); the shifted mean is
# base + offset + slope * intensity. Offsets keep the classes separable from
# normal traffic even at intensity ~ 0; slopes run across (nearly) all
# continuous features so record geometry tracks the hidden intensity in every
# dimension a selector might keep.
SIGNATURES = {
    DatasetKind.NTD: {
        "dos": {
            "packet_count": (300.0, 300.0),
            "serror_rate": (0.4, 0.4),
            "duration": (10.0, 25.0),
            "src_bytes": (150.0, 600.0),
            "dst_bytes": (200.0, 900.0),
            "srv_count": (10.0, 30.0),
        },
        "probe": {
            "srv_count": (30.0, 40.0),
            "src_bytes": (400.0, 600.0),
            "duration": (30.0, 30.0),
            "packet_count": (50.0, 200.0),
            "dst_bytes": (150.0, 900.0),
        },
        "u2r": {
            "duration": (60.0, 60.0),
            "src_bytes": (120.0, 600.0),
            "dst_bytes": (100.0, 900.0),
            "packet_count": (40.0, 200.0),
            "srv_count": (6.0, 25.0),
        },
        "r2l": {
            "dst_bytes": (2500.0, 3000.0),
            "src_bytes": (300.0, 450.0),
            "duration": (15.0, 25.0),
            "packet_count": (30.0, 200.0),
            "srv_count": (5.0, 25.0),
        },
    },
    DatasetKind.CLF: {
        "dos": {
            "bw_util": (0.20, 0.40),
            "cpu_util": (0.10, 0.38),
            "ram_util": (0.08, 0.38),
        },
        "probe": {
            "cpu_util": (0.15, 0.40),
            "bw_util": (0.10, 0.38),
            "ram_util": (0.05, 0.36),
        },
        "u2r": {
            "cpu_util": (0.30, 0.38),
            "ram_util": (0.10, 0.40),
            "bw_util": (0.05, 0.36),
        },
        "r2l": {
            "ram_util": (0.25, 0.40),
            "cpu_util": (0.06, 0.40),
            "bw_util": (0.07, 0.35),
        },
    },
}

# serror_rate capped below 1 so its intensity response never saturates.
_UNIT_FEATURES = {"serror_rate", "same_srv_rate", "cpu_util", "ram_util", "bw_util"}


def _feature_params(kind, label):
    """Per feature of `kind`, in schema order: None for the categorical
    protocol_type, else (mean, sd, signature (offset, slope) or None, capped
    at 1)."""
    base = _NTD_BASE if kind is DatasetKind.NTD else _CLF_BASE
    sig = SIGNATURES[kind].get(label, {})
    return tuple(
        None if base[name] is None
        else (*base[name], sig.get(name), name in _UNIT_FEATURES)
        for name in FEATURES[kind]
    )


# The one definition of every (kind, label) distribution that both draws read.
_PARAMS = {(kind, label): _feature_params(kind, label)
           for kind in DatasetKind for label in LABELS}


class DataConfigError(ValueError):
    pass


class StratificationError(ValueError):
    pass


@dataclass
class Dataset:
    kind: DatasetKind
    feature_names: tuple
    X: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) unicode
    intensity: np.ndarray  # (n,) float64; 0 for normal records

    def __len__(self):
        return len(self.labels)

    def to_csv(self) -> str:
        """Feature columns in schema order plus a final lowercase 'label'
        column. The hidden intensity is deliberately excluded."""
        return csv_text([*self.feature_names, "label"],
                        ([repr(float(v)) for v in row] + [str(label)]
                         for row, label in zip(self.X, self.labels)))

    def metadata_csv(self) -> str:
        """Row index -> hidden intensity, for severity training only."""
        return csv_text(["row", "intensity"],
                        ([idx, repr(float(val))] for idx, val in enumerate(self.intensity)))


def csv_text(header, rows) -> str:
    """The header row and `rows` as CSV text with newline line ends: the one
    writer of every CSV file the program emits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def dataset_from_csv(kind: DatasetKind, csv_text: str) -> Dataset:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows:
        raise DataConfigError(f"empty {kind.value} CSV: no header")
    header, body = rows[0], rows[1:]
    expected = list(FEATURES[kind]) + ["label"]
    if header != expected:
        raise DataConfigError(f"unexpected {kind.value} header: {header}")
    X = []
    for idx, r in enumerate(body):
        where = f"{kind.value} row {idx}"
        if len(r) != len(expected):
            raise DataConfigError(f"{where}: {len(r)} fields, header has {len(expected)}")
        if r[-1] not in LABELS:
            raise DataConfigError(f"{where}: label {r[-1]!r} is not one of {', '.join(LABELS)}")
        values = []
        for name, text in zip(FEATURES[kind], r):
            try:
                values.append(float(text))
            except ValueError:
                raise DataConfigError(f"{where}, column {name}: not a number {text!r}") from None
            if not math.isfinite(values[-1]):
                raise DataConfigError(f"{where}, column {name}: non-finite value {text!r}")
        X.append(values)
    X = np.array(X, dtype=float)
    labels = np.array([r[-1] for r in body])
    return Dataset(kind, FEATURES[kind], X, labels, np.zeros(len(body)))


def with_metadata(ds: Dataset, meta_text: str) -> Dataset:
    """`ds` with the hidden intensities of its metadata CSV `meta_text`, whose
    first line must be the header `row,intensity` and which lists every row
    of `ds` exactly once."""
    rows = list(csv.reader(io.StringIO(meta_text)))
    if rows[:1] != [["row", "intensity"]]:
        raise DataConfigError(f"{ds.kind.value} metadata line 1: expected the header "
                              f"'row,intensity', got {','.join(rows[0]) if rows else ''!r}")
    intensity = np.full(len(ds), np.nan)
    for line_no, fields in enumerate(rows[1:], start=2):
        where = f"{ds.kind.value} metadata line {line_no} {','.join(fields)!r}"
        if len(fields) != 2:
            raise DataConfigError(f"{where}: {len(fields)} fields, expected 2")
        try:
            row_idx, val = int(fields[0]), float(fields[1])
        except ValueError:
            raise DataConfigError(f"{where}: expected an integer row and a number") from None
        if not 0 <= row_idx < len(ds):
            raise DataConfigError(f"{where}: row outside [0, {len(ds)})")
        if not 0.0 <= val <= 1.0:
            raise DataConfigError(f"{where}: intensity outside [0, 1]")
        if not np.isnan(intensity[row_idx]):
            raise DataConfigError(f"{where}: row {row_idx} listed twice")
        intensity[row_idx] = val
    missing = np.flatnonzero(np.isnan(intensity))
    if missing.size:
        raise DataConfigError(f"{ds.kind.value} metadata: no line for row {missing[0]}")
    return replace(ds, intensity=intensity)


INTENSITY_MODES = ("uniform", "banded")


def _draw_intensity(rng, n, mode):
    if mode == "banded":
        # Three tight bands centered on the intensity terciles.
        centers = np.array([1 / 6, 1 / 2, 5 / 6])
        picks = rng.integers(0, 3, size=n)
        return centers[picks] + rng.uniform(-0.05, 0.05, size=n)
    # uniform over (0, 1]
    return 1.0 - rng.random(n)


def generate(
    kind: DatasetKind,
    n: int,
    attack_mix: dict,
    seed: int,
    intensity_mode: str = "uniform",
) -> Dataset:
    """Generate `n` records with label fractions `attack_mix` (label -> fraction
    summing to 1). Deterministic given `seed`."""
    if n < 1:
        raise DataConfigError("record count must be >= 1")
    for label, frac in attack_mix.items():
        number = isinstance(frac, (int, float)) and not isinstance(frac, bool)
        if not (number and 0 <= frac < float("inf")):
            raise DataConfigError(f"attack_mix fraction of {label!r} must be a finite number "
                                  f">= 0, got {frac!r}")
    total = sum(attack_mix.values())
    if abs(total - 1.0) > 1e-9:
        raise DataConfigError(f"attack_mix fractions sum to {total}, expected 1")
    for label in attack_mix:
        if label not in LABELS:
            raise DataConfigError(f"unknown label {label!r}")
    if intensity_mode not in INTENSITY_MODES:
        raise DataConfigError(f"unknown intensity_mode {intensity_mode!r}; "
                              "expected uniform or banded")

    # largest-remainder apportionment of n among labels, deterministic
    items = [(label, frac) for label, frac in attack_mix.items() if frac > 0]
    counts = {label: int(n * frac) for label, frac in items}
    remainder = n - sum(counts.values())
    by_frac = sorted(items, key=lambda lf: (-(n * lf[1] - int(n * lf[1])), lf[0]))
    for label, _ in by_frac[:remainder]:
        counts[label] += 1

    rng = np.random.default_rng(seed)
    names = FEATURES[kind]
    rows, labels, intensities = [], [], []
    for label in LABELS:
        cnt = counts.get(label, 0)
        if cnt == 0:
            continue
        intensity = (
            np.zeros(cnt) if label == NORMAL else _draw_intensity(rng, cnt, intensity_mode)
        )
        X = _sample_columns(kind, label, intensity, rng)
        rows.append(X)
        labels.extend([label] * cnt)
        intensities.append(intensity)
    X = np.vstack(rows)
    labels = np.array(labels)
    intensity = np.concatenate(intensities)
    # deterministic shuffle so labels are interleaved
    perm = rng.permutation(len(labels))
    return Dataset(kind, names, X[perm], labels[perm], intensity[perm])


def _runs(params):
    """`_PARAMS` entries with each run of continuous features as one tuple,
    and None for each categorical protocol_type between them."""
    runs = []
    for categorical, group in itertools.groupby(params, lambda p: p is None):
        if categorical:
            runs.extend(group)
        else:
            runs.append(tuple(group))
    return tuple(runs)


_RUNS = {key: _runs(params) for key, params in _PARAMS.items()}


def bounded_uint32(bitgen, high: int) -> int:
    """A uniform integer in [0, high] (high < 2**32 - 1) drawn as numpy draws
    one bounded integer: Lemire's multiply-shift of `next_uint32` on
    `bitgen`, a bit generator's `ctypes` interface, which hands out PCG64's
    buffered 32-bit half first. A word whose low product word is below
    (2**32 - 1 - high) % (high + 1) is rejected and redrawn; `high` 0 takes
    no word."""
    if not high:
        return 0
    n = high + 1
    threshold = (0xFFFFFFFF - high) % n
    m = bitgen.next_uint32(bitgen.state) * n
    while m & 0xFFFFFFFF < threshold:
        m = bitgen.next_uint32(bitgen.state) * n
    return m >> 32


def sample_features(kind: DatasetKind, label: str, intensity: float, rng) -> list:
    """Draw one record of `label` as a list of floats; `intensity` is its
    severity signal (ignored for normal records). Consumes `rng` exactly as
    one row of `_sample_columns` does: each run of continuous features is
    one `standard_normal` block (a scalar draw for a run of one), and
    `loc + sd * z` is the double arithmetic of numpy's scalar `normal(loc,
    sd)`. protocol_type is numpy's bounded `integers(0, 3)` on the same
    words, `bounded_uint32(…, 2)`. The clamps are the `>`/`<` tests of
    `min(max(v, 0.0), 1.0)`, so -0.0 and NaN pass through as they do
    there."""
    record = []
    for run in _RUNS[kind, label]:
        if run is None:  # categorical protocol_type
            record.append(float(bounded_uint32(rng.bit_generator.ctypes, 2)))
            continue
        zs = [rng.standard_normal()] if len(run) == 1 else rng.standard_normal(len(run)).tolist()
        for (mean, sd, sig, capped), z in zip(run, zs):
            loc = mean if sig is None else mean + (sig[0] + sig[1] * intensity)
            value = loc + sd * z
            if 0.0 > value:
                value = 0.0
            elif capped and 1.0 < value:
                value = 1.0
            record.append(value)
    return record


def _sample_columns(kind: DatasetKind, label: str, intensity: np.ndarray, rng) -> np.ndarray:
    """Draw len(intensity) rows of `label` column by column, as `generate`
    lays out its stream."""
    n = len(intensity)
    cols = []
    for params in _PARAMS[kind, label]:
        if params is None:  # categorical protocol_type
            cols.append(rng.integers(0, 3, size=n).astype(float))
            continue
        mean, sd, sig, capped = params
        loc = mean if sig is None else mean + (sig[0] + sig[1] * intensity)
        col = np.maximum(rng.normal(loc, sd, size=n), 0.0)
        cols.append(np.minimum(col, 1.0) if capped else col)
    return np.column_stack(cols)


def split(ds: Dataset, train_fraction: float, seed: int):
    """Stratified-by-label split into (train, test); disjoint, union = ds."""
    if not (0.0 < train_fraction < 1.0):
        raise DataConfigError("train_fraction must be in (0,1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in LABELS:
        idx = np.flatnonzero(ds.labels == label)
        if len(idx) == 0:
            continue
        if len(idx) < 2:
            raise StratificationError(f"label {label!r} has fewer than 2 records")
        idx = idx[rng.permutation(len(idx))]
        k = int(round(len(idx) * train_fraction))
        k = min(max(k, 1), len(idx) - 1)
        train_idx.extend(idx[:k])
        test_idx.extend(idx[k:])
    train_idx = np.sort(np.array(train_idx))
    test_idx = np.sort(np.array(test_idx))

    def take(indices):
        return Dataset(
            ds.kind, ds.feature_names, ds.X[indices], ds.labels[indices], ds.intensity[indices]
        )

    return take(train_idx), take(test_idx)
