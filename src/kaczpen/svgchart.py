"""Self-contained SVG line charts for error traces.

No plotting dependency: the chart is assembled as text with fixed float
formatting so identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
from html import escape

WIDTH = 800.0
HEIGHT = 500.0
MARGIN_LEFT = 80.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 32.0
MARGIN_BOTTOM = 56.0

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(
            f"cannot scale a linear axis from {lo:g} to {hi:g}: "
            "its width is not a positive finite float"
        )
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    try:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 8)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    except OverflowError:
        raise ValueError(f"cannot scale a log axis up to {hi:g}: a decade tick overflows") from None


def _tick_label(v: float, log_y: bool) -> str:
    if log_y:
        return f"1e{int(round(math.log10(v)))}"
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_chart(
    series: list[tuple[str, list[float], list[float]]],
    y_label: str = "error_sq",
    log_y: bool = False,
) -> str:
    """Render one polyline per (label, xs, ys) series.

    With log_y, nonpositive values are clamped to the smallest positive
    value appearing in any series; if there is none, raises ValueError.
    """
    if not series:
        raise ValueError("nothing to plot")
    for label, xs, ys in series:
        if len(xs) != len(ys) or not xs:
            raise ValueError(f"series {label!r} is empty or ragged")

    all_y = [y for _, _, ys in series for y in ys]
    if log_y:
        positive = [y for y in all_y if y > 0.0]
        if not positive:
            raise ValueError("log scale needs at least one positive value")
        floor_val = min(positive)
        series = [
            (label, xs, [y if y > 0.0 else floor_val for y in ys])
            for label, xs, ys in series
        ]
        all_y = [y for _, _, ys in series for y in ys]

    x_lo = min(x for _, xs, _ in series for x in xs)
    x_hi = max(x for _, xs, _ in series for x in xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        if y_hi <= y_lo:
            y_hi = y_lo * 10.0
        ticks_y = _decade_ticks(y_lo, y_hi)
        y_lo = min(y_lo, ticks_y[0])
        y_hi = max(y_hi, ticks_y[-1])
    else:
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        ticks_y = _linear_ticks(y_lo, y_hi)
    ticks_x = _linear_ticks(x_lo, x_hi)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        if log_y:
            frac = (math.log10(y) - math.log10(y_lo)) / (
                math.log10(y_hi) - math.log10(y_lo)
            )
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return MARGIN_TOP + (1.0 - frac) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">'
    )
    out.append(f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>')
    ax_color = "#333333"
    x_axis_y = MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(x_axis_y)}" '
        f'x2="{_fmt(MARGIN_LEFT + plot_w)}" y2="{_fmt(x_axis_y)}" '
        f'stroke="{ax_color}" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(MARGIN_TOP)}" '
        f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(x_axis_y)}" '
        f'stroke="{ax_color}" stroke-width="1"/>'
    )
    for t in ticks_x:
        px = sx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(x_axis_y + 5)}" stroke="{ax_color}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(x_axis_y + 20)}" font-size="12" '
            f'text-anchor="middle" fill="{ax_color}">{_tick_label(t, False)}</text>'
        )
    for t in ticks_y:
        if t < y_lo or t > y_hi:
            continue
        py = sy(t)
        out.append(
            f'<line x1="{_fmt(MARGIN_LEFT - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(py)}" '
            f'stroke="{ax_color}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_LEFT - 9)}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end" fill="{ax_color}">{_tick_label(t, log_y)}</text>'
        )
    out.append(
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 12)}" '
        f'font-size="13" text-anchor="middle" fill="{ax_color}">iteration</text>'
    )
    ylab = y_label + (" (log scale)" if log_y else "")
    out.append(
        f'<text x="18" y="{_fmt(MARGIN_TOP + plot_h / 2)}" font-size="13" '
        f'text-anchor="middle" fill="{ax_color}" '
        f'transform="rotate(-90 18 {_fmt(MARGIN_TOP + plot_h / 2)})">{ylab}</text>'
    )

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 16 + 18 * idx
        lx = MARGIN_LEFT + plot_w - 150
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 24)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly)}" font-size="12" '
            f'fill="{ax_color}">{escape(label, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
