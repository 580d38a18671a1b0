"""Static SVG line charts for sweep results, written without any plotting
dependency.  Values are drawn on a log2 axis; zero values are skipped."""

from __future__ import annotations

import math

__all__ = ["ChartSeries", "render_sweep_chart"]


class ChartSeries:
    """One line on the chart: (x, value) points, a label, and a style."""

    def __init__(self, label, points, color, kind="forecast"):
        self.label = label
        self.points = [(x, v) for x, v in points]
        self.color = color
        self.kind = kind  # "forecast" draws a line, "measured" draws markers
        self.series_id = label.replace(" ", "-")


def _log2_points(points):
    return [(x, math.log2(v)) for x, v in points if v > 0]


def render_sweep_chart(series_list, title):
    """Render measured points and forecast curves on one SVG chart."""
    margin_left, margin_right, margin_top, margin_bottom = 64, 24, 56, 56
    plot_w, plot_h = 560, 320
    width = margin_left + plot_w + margin_right
    height = margin_top + plot_h + margin_bottom

    logged = {s.series_id: _log2_points(s.points) for s in series_list}
    all_pts = [p for pts in logged.values() for p in pts]
    if all_pts:
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
    else:
        x_min, x_max, y_min, y_max = 0, 1, 0, 1
    if x_max == x_min:
        x_max = x_min + 1
    if y_max == y_min:
        y_max = y_min + 1
    y_min = math.floor(y_min)
    y_max = math.ceil(y_max)

    def sx(x):
        return margin_left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return margin_top + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        'font-family="system-ui, sans-serif">'
    )
    out.append(f'  <rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(
        f'  <text x="{width / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-weight="600" fill="#333">{title}</text>'
    )

    # Grid and y labels at integer log2 ticks.
    step = max(1, (y_max - y_min) // 8)
    tick = y_min
    while tick <= y_max:
        y = sy(tick)
        out.append(
            f'  <line x1="{margin_left}" y1="{y:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{y:.1f}" stroke="#e3e3e3" stroke-width="1"/>'
        )
        out.append(
            f'  <text x="{margin_left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="#666">{tick}</text>'
        )
        tick += step
    for x in range(int(math.floor(x_min)), int(math.ceil(x_max)) + 1):
        out.append(
            f'  <text x="{sx(x):.1f}" y="{margin_top + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" fill="#666">{x}</text>'
        )

    # Axes.
    out.append(
        f'  <line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'  <line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'  <text x="{margin_left + plot_w / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12" fill="#666">n_q</text>'
    )
    out.append(
        f'  <text x="16" y="{margin_top + plot_h / 2}" text-anchor="middle" font-size="12" '
        f'fill="#666" transform="rotate(-90, 16, {margin_top + plot_h / 2})">log2(count)</text>'
    )

    legend_x = margin_left + 8
    legend_y = 36
    for s in series_list:
        pts = logged[s.series_id]
        if s.kind == "forecast":
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            out.append(
                f'  <polyline id="{s.series_id}" class="forecast" fill="none" '
                f'stroke="{s.color}" stroke-width="2" points="{path}"/>'
            )
        else:
            for x, y in pts:
                out.append(
                    f'  <circle class="measured" data-series="{s.series_id}" '
                    f'cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3.5" fill="{s.color}" '
                    'stroke="#333" stroke-width="0.8"/>'
                )
        out.append(
            f'  <rect x="{legend_x}" y="{legend_y}" width="12" height="12" fill="{s.color}" rx="2"/>'
        )
        out.append(
            f'  <text x="{legend_x + 16}" y="{legend_y + 10}" font-size="11" fill="#333">{s.label}</text>'
        )
        legend_x += 16 + 8 * len(s.label) + 20

    out.append("</svg>")
    return "\n".join(out) + "\n"
