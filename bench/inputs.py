"""Seeded inputs: population labels, procedure documents and rate points.

Labels are generated with numpy from the benchmark seed and kept here as
arrays; the population CSV written for procfair is rendered from them, and
the expected outputs in ``oracle.py`` are computed from the same arrays, never
from procfair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SEX_VALUES = ("M", "F")


@dataclass(frozen=True)
class Rows:
    """One seeded population: merit J, criterion X and two categorical attributes.

    ``attrs`` maps an attribute name to (values, per-row value codes).
    """

    ids: tuple[str, ...]
    merit: np.ndarray
    criterion: np.ndarray
    attrs: dict[str, tuple[tuple[str, ...], np.ndarray]]

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> list[str]:
        values, codes = self.attrs[name]
        return [values[c] for c in codes]


def region_values(count: int) -> tuple[str, ...]:
    return tuple(f"r{i:02d}" for i in range(count))


def make_rows(seed: int, stream: int, n: int, n_regions: int, prefix: str) -> Rows:
    """A population of ``n`` rows with attributes ``sex`` (2 values) and ``region``.

    About 60 % are innocent (J=1); the criterion agrees with merit for about
    80 %. When ``n`` allows it, every (region, J, X) and every (sex, J)
    combination is planted at seeded positions, so every group has members in
    both merit classes and both merit classes straddle the criterion split,
    whatever the seed.
    """
    rng = np.random.default_rng([seed, stream])
    merit = (rng.random(n) < 0.6).astype(np.int8)
    criterion = np.where(rng.random(n) < 0.8, merit, 1 - merit).astype(np.int8)
    sex = rng.integers(0, 2, n).astype(np.int8)
    region = rng.integers(0, n_regions, n).astype(np.int16)
    combos = [(r, j, x) for r in range(n_regions) for j in (0, 1) for x in (0, 1)]
    if n >= len(combos):
        at = rng.permutation(n)[: len(combos)]
        for pos, (r, j, x) in zip(at, combos):
            region[pos], merit[pos], criterion[pos] = r, j, x
            sex[pos] = (r + j) % 2
    width = len(str(n - 1))
    ids = tuple(f"{prefix}{i:0{width}d}" for i in range(n))
    return Rows(
        ids=ids,
        merit=merit,
        criterion=criterion,
        attrs={"sex": (SEX_VALUES, sex), "region": (region_values(n_regions), region)},
    )


def population_csv(rows: Rows) -> str:
    sex = rows.column("sex")
    region = rows.column("region")
    lines = ["id,J,X,attrs"]
    lines.extend(
        f"{ident},{j},{x},sex={s};region={r}"
        for ident, j, x, s, r in zip(
            rows.ids, rows.merit.tolist(), rows.criterion.tolist(), sex, region
        )
    )
    return "\n".join(lines) + "\n"


# --- procedures -------------------------------------------------------------

GUILTY_RATE = "3/4"  # h = P(U=0 | J=0)
INNOCENT_RATE = "1/10"  # k = P(U=0 | J=1)

DETERMINISTIC = {"type": "deterministic"}
GLOBAL = {"type": "randomized", "rates": {"global": [GUILTY_RATE, INNOCENT_RATE]}}


def per_group_equal(attribute: str, values: tuple[str, ...]) -> dict:
    """Per-group rates, the same pair for every value: group-fair by construction."""
    return {
        "type": "randomized",
        "attribute": attribute,
        "rates": {v: [GUILTY_RATE, INNOCENT_RATE] for v in values},
    }


def per_group_unequal(attribute: str, values: tuple[str, ...]) -> dict:
    """Per-group rates with a different h and a different k for every value."""
    return {
        "type": "randomized",
        "attribute": attribute,
        "rates": {v: [f"{i + 4}/24", f"{i + 1}/48"] for i, v in enumerate(values)},
    }


# --- rate points --------------------------------------------------------------


def rate_points(seed: int, stream: int, count: int) -> list[tuple[str, Fraction, Fraction]]:
    """Labelled (h, k) points: the four corners, the diagonal, edges and interior."""
    rng = np.random.default_rng([seed, stream])
    fixed = [(1, 0), (1, 1), (0, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))]
    points = []
    for i in range(count):
        if i < len(fixed):
            h, k = fixed[i]
        else:
            den = int(rng.integers(2, 40))
            h = Fraction(int(rng.integers(0, den + 1)), den)
            k = Fraction(int(rng.integers(0, den + 1)), den)
            if i % 4 == 0:
                h = Fraction(1)  # an edge point
        points.append((f"pt{i:02d}", Fraction(h), Fraction(k)))
    return points
