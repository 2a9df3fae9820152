"""Deterministic SVG plots for the evaluation outputs.

The charts are plain polylines with fixed-precision coordinates, so the
same metrics always serialize to the same bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .evaluate import MetricsPoint, RocCurve

_WIDTH = 480
_HEIGHT = 320
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 32
_MARGIN_BOTTOM = 44


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _chart(
    title: str,
    x_label: str,
    y_label: str,
    points: Sequence[tuple[float, float]],
    x_max: float,
) -> str:
    """An SVG line chart of `points`, x over [0, x_max] and y over [0, 1]."""
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x: float, y: float) -> tuple[float, float]:
        return _MARGIN_LEFT + (x / x_max) * plot_w, _MARGIN_TOP + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # Axes and quarter gridlines.
    x0, y0 = to_px(0.0, 0.0)
    x1, _ = to_px(x_max, 0.0)
    _, y1 = to_px(0.0, 1.0)
    for frac in (0.25, 0.5, 0.75, 1.0):
        gx, _ = to_px(frac * x_max, 0.0)
        _, gy = to_px(0.0, frac)
        parts.append(
            f'<line x1="{_fmt(gx)}" y1="{_fmt(y0)}" x2="{_fmt(gx)}" y2="{_fmt(y1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(gy)}" x2="{_fmt(x1)}" y2="{_fmt(gy)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(gx)}" y="{_fmt(y0 + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(frac * x_max)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(gy + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(frac)}</text>'
        )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_HEIGHT // 2})">{y_label}</text>'
    )
    if points:
        coords = " ".join(
            "{},{}".format(_fmt(px), _fmt(py))
            for px, py in (to_px(x, y) for x, y in points)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
        )
        for x, y in points:
            px, py = to_px(x, y)
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="#1f6fb2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def f1_plot_svg(metrics: Sequence[MetricsPoint]) -> str:
    """F1 against the top-k cut size."""
    points = [(float(m.k), m.f1) for m in metrics]
    x_max = max((x for x, _ in points), default=1.0) or 1.0
    return _chart("F1 by top-k cut", "k", "F1", points, x_max=x_max)


def roc_plot_svg(curve: RocCurve) -> str:
    """ROC polyline including the (0,0) and (1,1) endpoints."""
    title = f"ROC (AUC {curve.auc:.3f})"
    return _chart(title, "false positive rate", "true positive rate",
                  list(curve.points), x_max=1.0)
