"""Static SVG band diagrams and butterflies.

Pure-text encoders of the ``bands`` and ``butterfly`` payloads, standard
library only: band structures as energy-vs-k polylines, butterflies as
horizontal band segments per flux row.  They draw the very numbers that JSON
and CSV print, and the output is deterministic for a fixed payload.
"""

from __future__ import annotations

WIDTH = 800
HEIGHT = 600
MARGIN = 60


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _svg_document(body: list, metadata: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- {metadata} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(x_label: str, y_label: str) -> list:
    x0, x1 = MARGIN, WIDTH - MARGIN
    y0, y1 = HEIGHT - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - MARGIN // 3}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="{MARGIN // 3}" y="{(y0 + y1) // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 {MARGIN // 3} {(y0 + y1) // 2})">{y_label}</text>',
    ]


def _scaler(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0

    def scale(v):
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return scale


def render_bands_svg(payload: dict, metadata: str) -> str:
    """One polyline per band: the payload's "band_energies" (one row per band)
    over its k-grid "k"."""
    ks, energies = payload["k"], payload["band_energies"]
    e_lo, e_hi = min(map(min, energies)), max(map(max, energies))
    pad = 0.05 * (e_hi - e_lo if e_hi > e_lo else 1.0)
    sx = _scaler(min(ks), max(ks), MARGIN, WIDTH - MARGIN)
    sy = _scaler(e_lo - pad, e_hi + pad, HEIGHT - MARGIN, MARGIN)
    body = _axes("quasimomentum k", "energy")
    for band in energies:
        pts = " ".join(f"{_fmt(sx(k))},{_fmt(sy(e))}" for k, e in zip(ks, band))
        body.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    return _svg_document(body, metadata)


def render_butterfly_svg(payload: dict, metadata: str) -> str:
    """The payload's "rows" as horizontal segments, each [lo, hi] of a row's
    "bands" at the height of its "flux": energy along x, flux along y."""
    rows = payload["rows"]
    los = [lo for row in rows for lo, _ in row["bands"]]
    his = [hi for row in rows for _, hi in row["bands"]]
    e_lo, e_hi = min(los), max(his)
    pad = 0.02 * (e_hi - e_lo if e_hi > e_lo else 1.0)
    sx = _scaler(e_lo - pad, e_hi + pad, MARGIN, WIDTH - MARGIN)
    sy = _scaler(0.0, 1.0, HEIGHT - MARGIN, MARGIN)
    body = _axes("energy", "flux p/q")
    for row in rows:
        y = _fmt(sy(row["flux"]))
        for a, b in row["bands"]:
            body.append(
                f'<line x1="{_fmt(sx(a))}" y1="{y}" x2="{_fmt(sx(b))}" y2="{y}" '
                'stroke="black" stroke-width="1"/>'
            )
    return _svg_document(body, metadata)
