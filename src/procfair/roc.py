"""Procedures as points in conviction-rate space, and their taxonomy.

A procedure is summarized by the pair (h, k) with h = P(U=0 | J=0) and
k = P(U=0 | J=1): the true positive rate and false positive rate of the
conviction decision. The unit square of such points splits into nine
mutually exclusive classes: four corner procedures, two perfect-for-one-class
edges, the merit-agnostic diagonal h = k, and the two open regions on either
side of that diagonal (more likely to convict the guilty, or perversely the
innocent).

``to_diamond`` rotates the square by 45 degrees so the diagonal becomes the
vertical axis and the everyone-acquitted corner sits at the bottom, which is
the layout used by the exported diagram. :func:`diagram_rows` gives each
labeled point one row, the JSON document of ``roc-export``, and
:func:`render_diagram`, the one SVG writer, draws those rows (their CSV goes
through ``population.csv_text``); both :func:`export_diagram` and ``roc-export
--format svg|csv`` use it. :func:`_checked_eps` is the one ``eps`` rule, and
:func:`_load_points` the one points-file rule.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from html import escape
from typing import IO, Sequence

from .errors import ProcfairError
from .population import csv_text
from .procedure import RocPoint, _parse_json, as_rational
from .serialize import rational_json

__all__ = [
    "ProcedureClass",
    "is_merit_agnostic",
    "RocPoint",
    "classify",
    "to_diamond",
    "export_diagram",
]


class ProcedureClass(Enum):
    PERFECTLY_JUST = "PerfectlyJust"
    EVERYONE_CONVICTED = "EveryoneConvicted"
    EVERYONE_ACQUITTED = "EveryoneAcquitted"
    PERFECT_FOR_GUILTY = "PerfectForGuilty"
    PERFECT_FOR_INNOCENT = "PerfectForInnocent"
    MERIT_AGNOSTIC = "MeritAgnostic"
    IMPERFECTLY_JUST = "ImperfectlyJust"
    PERFECTLY_UNJUST = "PerfectlyUnjust"
    UNREASONABLY_UNJUST = "UnreasonablyUnjust"

    def __str__(self) -> str:
        return self.value


# The degenerate corner procedures convict (or acquit) regardless of merit,
# so they are merit-agnostic even though they get their own class.
MERIT_AGNOSTIC_CLASSES = frozenset(
    {
        ProcedureClass.MERIT_AGNOSTIC,
        ProcedureClass.EVERYONE_CONVICTED,
        ProcedureClass.EVERYONE_ACQUITTED,
    }
)


def is_merit_agnostic(cls: ProcedureClass) -> bool:
    """Whether conviction probability is independent of merit for this class."""
    return cls in MERIT_AGNOSTIC_CLASSES


def _checked_eps(eps) -> Fraction:
    """``eps`` as an exact rational; raises unless it lies in [0, 1/4)."""
    tol = as_rational(eps)
    if not 0 <= 4 * tol.numerator < tol.denominator:  # the denominator is positive
        raise ValueError(f"eps must lie in [0, 1/4), got {eps!r}")
    return tol


def classify(p: RocPoint, eps=0) -> ProcedureClass:
    """Assign a point its taxonomy class, with tolerance bands of width ``eps``.

    Corners take precedence over edges, edges over the interior, so the
    classes stay mutually exclusive for any ``eps`` below 1/4 (beyond that
    the corner bands would start to overlap). With ``eps = 0`` and rational
    inputs the test is exact and partitions the unit square.
    """
    tol = _checked_eps(eps)
    # h, k, tol and 1 over one common denominator: exact integer comparisons
    hd, kd, td = p.h.denominator, p.k.denominator, tol.denominator
    h, k = p.h.numerator * kd * td, p.k.numerator * hd * td
    t, one = tol.numerator * hd * kd, hd * kd * td
    near_h0, near_h1 = h <= t, one - h <= t
    near_k0, near_k1 = k <= t, one - k <= t
    if near_h1 and near_k0:
        return ProcedureClass.PERFECTLY_JUST
    if near_h1 and near_k1:
        return ProcedureClass.EVERYONE_CONVICTED
    if near_h0 and near_k0:
        return ProcedureClass.EVERYONE_ACQUITTED
    if near_h0 and near_k1:
        return ProcedureClass.PERFECTLY_UNJUST
    if near_h1:
        return ProcedureClass.PERFECT_FOR_GUILTY
    if near_k0:
        return ProcedureClass.PERFECT_FOR_INNOCENT
    if abs(h - k) <= t:
        return ProcedureClass.MERIT_AGNOSTIC
    if h - k > t:
        return ProcedureClass.IMPERFECTLY_JUST
    return ProcedureClass.UNREASONABLY_UNJUST


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def to_diamond(p: RocPoint) -> tuple[float, float]:
    """Rotate (h, k) by 45 degrees: x = (h-k)/sqrt2, y = (h+k)/sqrt2.

    The rotation is an isometry. Corners land at the diamond vertices:
    everyone-acquitted at the origin, perfectly-just on the right,
    perfectly-unjust on the left, everyone-convicted at the top; the
    merit-agnostic diagonal becomes the vertical segment between bottom
    and top.
    """
    h, k = float(p.h), float(p.k)
    return ((h - k) * _INV_SQRT2, (h + k) * _INV_SQRT2)


# --- diagram export ----------------------------------------------------------

_SIZE = 600
_MARGIN = 40
_SCALE = (_SIZE - 2 * _MARGIN) / math.sqrt(2.0)
_CX = _SIZE / 2
_BOTTOM = _SIZE - _MARGIN


def _pixel(xy: tuple[float, float]) -> tuple[float, float]:
    # y axis points up in diamond coordinates, down in SVG.
    x, y = xy
    return (_CX + x * _SCALE, _BOTTOM - y * _SCALE)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def diagram_rows(points: Sequence[tuple[str, RocPoint]], eps=0) -> list[dict]:
    """One row per point: ``label``, ``h`` and ``k`` as ``{"ratio", "approx"}``, diamond
    ``x`` and ``y``, ``class`` at ``eps`` and ``merit_agnostic``. Labels must be unique."""
    tol = _checked_eps(eps)
    counts = Counter(label for label, _ in points)
    if len(counts) != len(points):
        dupes = sorted(label for label, count in counts.items() if count > 1)
        raise ValueError(f"duplicate point labels: {dupes}")
    rows = []
    for label, point in points:
        x, y = to_diamond(point)
        cls = classify(point, tol)
        rows.append(
            {"label": label, "h": rational_json(point.h), "k": rational_json(point.k),
             "x": x, "y": y, "class": cls.value, "merit_agnostic": is_merit_agnostic(cls)}
        )
    return rows


def _load_points(source: str | bytes | IO[str] | IO[bytes]) -> list[tuple[str, RocPoint]]:
    """The labeled points of a points file, a JSON list of ``{label, h, k}``
    objects read by :func:`~procfair.procedure._parse_json`."""
    entries = _parse_json(source)
    if not isinstance(entries, list):
        raise ProcfairError("points file must be a JSON list of {label, h, k} objects")
    points = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"label", "h", "k"} <= set(entry):
            raise ProcfairError(f"points entry {i} must carry label, h and k")
        if not isinstance(entry["label"], str):
            raise ProcfairError(f"points entry {i} label must be a string")
        points.append((entry["label"], RocPoint(entry["h"], entry["k"])))
    return points


def export_diagram(points: Sequence[tuple[str, RocPoint]], format: str = "svg", eps=0) -> str:
    """Render labeled rate points as an SVG diamond diagram or a CSV table: the one
    writer :func:`render_diagram` over the :func:`diagram_rows` of ``points`` (each
    row a ``label``, ``h`` and ``k``, ``x`` and ``y`` and the ``class`` at ``eps``)."""
    return render_diagram(diagram_rows(points, eps), format)


def render_diagram(rows: Sequence[dict], format: str = "svg") -> str:
    """Draw :func:`diagram_rows` rows, reading each row's ``label``,
    ``h.approx``, ``k.approx``, ``x``, ``y`` and ``class``.

    CSV rows are ``label,h,k,x,y,class`` with numbers to 8 decimal places.
    The SVG is a fixed 600x600 viewport showing the rotated unit square,
    the dotted merit-agnostic segment, the two shaded half regions, and one
    labeled marker per row.
    """
    if format == "csv":
        return csv_text(
            [["label", "h", "k", "x", "y", "class"]]
            + [
                [row["label"]]
                + [f"{v:.8f}" for v in (row["h"]["approx"], row["k"]["approx"], row["x"], row["y"])]
                + [row["class"]]
                for row in rows
            ]
        )
    if format != "svg":
        raise ValueError(f"format must be 'svg' or 'csv', got {format!r}")
    bottom = _pixel((0.0, 0.0))  # everyone acquitted
    right = _pixel(to_diamond(RocPoint(1, 0)))  # perfectly just
    left = _pixel(to_diamond(RocPoint(0, 1)))  # perfectly unjust
    top = _pixel((0.0, math.sqrt(2.0)))  # everyone convicted

    def pt(p: tuple[float, float]) -> str:
        return f"{_fmt(p[0])},{_fmt(p[1])}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        # Region right of the diagonal: convicts the guilty more readily.
        f'<polygon points="{pt(bottom)} {pt(right)} {pt(top)}" fill="#d9d9d9"/>',
        # Region left of the diagonal: convicts the innocent more readily.
        f'<polygon points="{pt(bottom)} {pt(left)} {pt(top)}" fill="#f2f2f2"/>',
        f'<polygon points="{pt(bottom)} {pt(right)} {pt(top)} {pt(left)}" '
        'fill="none" stroke="black" stroke-width="2"/>',
        # Merit-agnostic segment: conviction probability independent of merit.
        f'<line x1="{_fmt(bottom[0])}" y1="{_fmt(bottom[1])}" '
        f'x2="{_fmt(top[0])}" y2="{_fmt(top[1])}" '
        'stroke="black" stroke-width="1.5" stroke-dasharray="2,5"/>',
        _text(right[0] + 8, right[1], "perfectly just", anchor="start"),
        _text(left[0] - 8, left[1], "perfectly unjust", anchor="end"),
        _text(top[0], top[1] - 10, "everyone convicted"),
        _text(bottom[0], bottom[1] + 18, "everyone acquitted"),
        _text((bottom[0] + right[0]) / 2 + 14, (bottom[1] + right[1]) / 2 + 14,
              "P(U=0 | J=0)", rotate=-45),
        _text((bottom[0] + left[0]) / 2 - 14, (bottom[1] + left[1]) / 2 + 14,
              "P(U=0 | J=1)", rotate=45),
        _text((bottom[0] + right[0]) / 2 - 40, (bottom[1] + top[1]) / 2,
              "imperfectly just", italic=True),
        _text((bottom[0] + left[0]) / 2 + 40, (bottom[1] + top[1]) / 2,
              "unreasonably unjust", italic=True),
    ]
    for row in rows:
        px, py = _pixel((row["x"], row["y"]))
        lines.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#c0392b">'
            f"<title>{escape(row['label'], quote=False)}: h={row['h']['approx']:.4f} "
            f"k={row['k']['approx']:.4f} {row['class']}</title></circle>"
        )
        lines.append(_text(px + 7, py - 7, row["label"], anchor="start"))
    lines.append("</svg>")
    return "\n".join(lines)


def _text(
    x: float,
    y: float,
    content: str,
    anchor: str = "middle",
    rotate: float | None = None,
    italic: bool = False,
) -> str:
    transform = f' transform="rotate({rotate:g} {_fmt(x)} {_fmt(y)})"' if rotate else ""
    style = ' font-style="italic" fill="#555555"' if italic else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="13" '
        f'text-anchor="{anchor}"{transform}{style}>{escape(content, quote=False)}</text>'
    )
