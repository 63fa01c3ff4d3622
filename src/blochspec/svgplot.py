"""Static SVG band diagrams and butterflies.

Plain text emitters, no plotting dependencies: band structures as
energy-vs-k polylines, butterflies as horizontal band segments per flux row.
Output is deterministic for fixed input.
"""

from __future__ import annotations

import numpy as np

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


def render_bands_svg(ks: np.ndarray, energies: np.ndarray, metadata: str) -> str:
    """Band functions as one polyline per band over the k-grid."""
    ks = np.asarray(ks, dtype=float)
    energies = np.asarray(energies, dtype=float)
    e_lo, e_hi = float(energies.min()), float(energies.max())
    pad = 0.05 * (e_hi - e_lo if e_hi > e_lo else 1.0)
    sx = _scaler(float(ks.min()), float(ks.max()), MARGIN, WIDTH - MARGIN)
    sy = _scaler(e_lo - pad, e_hi + pad, HEIGHT - MARGIN, MARGIN)
    body = _axes("quasimomentum k", "energy")
    for b in range(energies.shape[1]):
        pts = " ".join(f"{_fmt(sx(k))},{_fmt(sy(e))}" for k, e in zip(ks, energies[:, b]))
        body.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>')
    return _svg_document(body, metadata)


def render_butterfly_svg(rows, metadata: str) -> str:
    """Butterfly rows (flux, band intervals) as horizontal segments.

    Energy runs along x, flux along y, the classic orientation.
    """
    rows = list(rows)
    los = [iv[0] for _, bands in rows for iv in bands.intervals]
    his = [iv[1] for _, bands in rows for iv in bands.intervals]
    e_lo, e_hi = min(los), max(his)
    pad = 0.02 * (e_hi - e_lo if e_hi > e_lo else 1.0)
    sx = _scaler(e_lo - pad, e_hi + pad, MARGIN, WIDTH - MARGIN)
    sy = _scaler(0.0, 1.0, HEIGHT - MARGIN, MARGIN)
    body = _axes("energy", "flux p/q")
    for flux, bands in rows:
        y = _fmt(sy(flux.value))
        for a, b in bands.intervals:
            body.append(
                f'<line x1="{_fmt(sx(a))}" y1="{y}" x2="{_fmt(sx(b))}" y2="{y}" '
                'stroke="black" stroke-width="1"/>'
            )
    return _svg_document(body, metadata)
