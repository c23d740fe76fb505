"""Fit the severity model and show how it grades detected attacks.

Uses banded-intensity telemetry so records cluster around low / medium / high
attack strength, fits the chi-square feature selection plus k-means pipeline
per attack type, and then assesses a few held-out records, comparing the
predicted tier to the hidden generator intensity.
"""

import numpy as np

from secflow.datagen import DatasetKind, generate
from secflow.model import SEVERITY_LEVEL, AttackType
from secflow.severity import fit_severity

MIX = {"normal": 0.5, "dos": 0.125, "probe": 0.125, "u2r": 0.125, "r2l": 0.125}


def main():
    train = {
        kind: generate(kind, 3000, MIX, seed=42 + i, intensity_mode="banded")
        for i, kind in enumerate(DatasetKind)
    }
    model = fit_severity(train, seed=42)

    kind = DatasetKind.NTD
    entry = model.entries[(kind, AttackType.DOS)]
    names = [train[kind].feature_names[j] for j in entry.feature_indices]
    print(f"chi-square picked for {kind.value}/dos: {', '.join(names)}")

    held_out = generate(kind, 600, MIX, seed=99, intensity_mode="banded")
    mask = held_out.labels == "dos"
    print("\nsample assessments (predicted tier vs hidden intensity):")
    for idx in np.flatnonzero(mask)[:8]:
        level = model.assess(kind, AttackType.DOS, held_out.X[idx])
        print(f"  intensity {held_out.intensity[idx]:.2f} -> "
              f"{level.value:<6} (l = {SEVERITY_LEVEL[level]:.2f})")


if __name__ == "__main__":
    main()
