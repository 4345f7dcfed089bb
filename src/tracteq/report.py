"""Fixed-width result tables, GeoJSON joins, and a minimal SVG choropleth.

The regression tables follow the usual applied layout: one estimate column
per global model with the standard error parenthesized beneath, and for
local models the per-term mean/min/max plus the shares of tracts whose local
t passes +-SIG_T. All output is deterministic text.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

from .data_model import TractSet

if TYPE_CHECKING:
    from .gwr import GwrSummary
    from .ols import OlsFit

# Two-sided significance cut-off of a t statistic: an OLS estimate beyond it
# is starred, and the GWR summaries count the local t beyond it.
SIG_T = 1.96

DIVERGING_COLORS = (
    "#2166ac",
    "#67a9cf",
    "#d1e5f0",
    "#f7f7f7",
    "#fddbc7",
    "#ef8a62",
    "#b2182b",
)
MISSING_COLOR = "#cccccc"


def _render(rows: Sequence[Sequence[str]]) -> str:
    """Left-align the first column, right-align the rest, two-space gutters."""
    n_cols = max(len(r) for r in rows)
    widths = [0] * n_cols
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        cells = []
        for i in range(n_cols):
            cell = row[i] if i < len(row) else ""
            cells.append(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _est(value: float, t: float) -> str:
    star = "*" if abs(t) > SIG_T else ""
    return f"{value:.2f}{star}"


def format_ols_table(fits: Sequence[tuple[str, OlsFit]]) -> str:
    """Side-by-side estimates with parenthesized standard errors beneath."""
    terms: list[str] = []
    for _, fit in fits:
        for term in fit.column_names:
            if term not in terms:
                terms.append(term)
    rows: list[list[str]] = [["term"] + [name for name, _ in fits]]
    for term in terms:
        est_row = [term]
        se_row = [""]
        for _, fit in fits:
            if term in fit.column_names:
                i = fit.column_names.index(term)
                est_row.append(_est(fit.coefficients[i], fit.t_stats[i]))
                se_row.append(f"({fit.robust_se[i]:.2f})")
            else:
                est_row.append("")
                se_row.append("")
        rows.append(est_row)
        rows.append(se_row)
    rows.append(["n"] + [str(fit.n) for _, fit in fits])
    rows.append(["R^2"] + [f"{fit.r_squared:.2f}" for _, fit in fits])
    return _render(rows)


def format_gwr_table(name: str, summary: GwrSummary) -> str:
    """Per-term local-coefficient distribution and significance shares."""
    rows: list[list[str]] = [
        ["term", "mean", "min", "max", f"t<-{SIG_T}", f"t>{SIG_T}"]
    ]
    for i, term in enumerate(summary.column_names):
        rows.append(
            [
                term,
                f"{summary.mean[i]:.2f}",
                f"{summary.min[i]:.2f}",
                f"{summary.max[i]:.2f}",
                f"{summary.pct_sig_neg[i] * 100:.2f}%",
                f"{summary.pct_sig_pos[i] * 100:.2f}%",
            ]
        )
    rows.append(
        [
            "local R^2",
            f"{summary.mean_local_r2:.2f}",
            f"{summary.min_local_r2:.2f}",
            f"{summary.max_local_r2:.2f}",
            "",
            "",
        ]
    )
    rows.append(["neighbors_k", str(summary.neighbors_k)])
    rows.append(["n", str(summary.n_used)])
    header = f"{name}\n"
    if summary.n_failed:
        header += f"({summary.n_failed} tract(s) excluded: local fit failed)\n"
    return header + _render(rows)


def format_equity_summary(
    group: str, entries: Sequence[tuple[str, float, int]]
) -> str:
    """Population-weighted mean index per subset, four decimals."""
    rows: list[list[str]] = [["subset", "weighted mean", "tracts"]]
    for label, value, count in entries:
        rows.append([label, f"{value:.4f}", str(count)])
    return f"population-weighted mean inequity index, group {group}\n" + _render(rows)


def tracts_to_geojson(
    tracts: TractSet,
    properties: Mapping[str, Mapping[str, object]] | None = None,
    meta: Mapping[str, object] | None = None,
) -> str:
    """Join per-tract values onto polygons as a FeatureCollection string."""
    properties = properties or {}
    features = []
    for tract in tracts:
        ring = [[x, y] for x, y in tract.polygon]
        ring.append(ring[0])
        props: dict[str, object] = {"tract_id": tract.tract_id}
        props.update(properties.get(tract.tract_id, {}))
        features.append(
            {
                "type": "Feature",
                "properties": props,
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    doc: dict[str, object] = {"type": "FeatureCollection", "features": features}
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, sort_keys=True)


def _color_for(value: float, vmax: float) -> str:
    if vmax <= 0.0:
        return DIVERGING_COLORS[len(DIVERGING_COLORS) // 2]
    n = len(DIVERGING_COLORS)
    i = int((value + vmax) / (2.0 * vmax) * n)
    return DIVERGING_COLORS[min(max(i, 0), n - 1)]


def svg_choropleth(
    tracts: TractSet,
    values: Mapping[str, float],
    title: str = "",
) -> str:
    """Diverging choropleth with equal-interval bins centered on zero.

    Tracts without a value render gray. Output is a standalone SVG string 800 px wide.
    """
    xs = [x for t in tracts for x, _ in t.polygon]
    ys = [y for t in tracts for _, y in t.polygon]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = max(x1 - x0, 1e-9)
    span_y = max(y1 - y0, 1e-9)
    width = 800.0
    margin = 10.0
    legend_h = 60.0
    scale = (width - 2 * margin) / span_x
    height = span_y * scale + 2 * margin + legend_h

    def sx(x: float) -> float:
        return margin + (x - x0) * scale

    def sy(y: float) -> float:
        return margin + (y1 - y) * scale

    vmax = max((abs(v) for v in values.values()), default=0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    if title:
        parts.append(
            f'<title>{title}</title>'
        )
    for tract in tracts:
        d = "M " + " L ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in tract.polygon) + " Z"
        v = values.get(tract.tract_id)
        fill = MISSING_COLOR if v is None else _color_for(v, vmax)
        parts.append(
            f'<path d="{d}" fill="{fill}" stroke="#333333" stroke-width="0.5">'
            f"<title>{tract.tract_id}</title></path>"
        )
    # Legend: one swatch per bin with its lower edge labeled.
    n = len(DIVERGING_COLORS)
    sw = 46.0
    ly = span_y * scale + 2 * margin + 8
    for i, color in enumerate(DIVERGING_COLORS):
        lx = margin + i * (sw + 4)
        lo = -vmax + i * (2 * vmax / n)
        parts.append(
            f'<rect x="{lx:.2f}" y="{ly:.2f}" width="{sw:.2f}" height="14" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx:.2f}" y="{ly + 28:.2f}" font-size="9" '
            f'font-family="sans-serif">{lo:.4f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
