"""Static SVG rendering of barcodes.

Bars are drawn as horizontal strokes ordered by birth, parity 0 in blue
and parity 1 in red; spectrum points become labelled axis ticks.  Output
is deterministic: same barcode, same bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .barcode import Barcode

_COLORS = ("#2b6cb0", "#c53030")
_WIDTH = 720
_MARGIN = 56
_ROW = 18
_ARROW = 26  # overhang for infinite ends


def _x(value: Fraction, lo: Fraction, hi: Fraction) -> float:
    span = hi - lo
    if span == 0:
        return _MARGIN
    return _MARGIN + float((value - lo) / span) * (_WIDTH - 2 * _MARGIN)


def barcode_svg(b: Barcode) -> str:
    lo, hi = b.spectrum.lo.value, b.spectrum.hi.value
    height = _MARGIN + _ROW * max(len(b.bars), 1) + _MARGIN
    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">')
    parts.append(f'<rect width="{_WIDTH}" height="{height}" fill="white"/>')

    axis_y = height - _MARGIN // 2
    parts.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{axis_y}" stroke="#444" stroke-width="1"/>')
    for p in b.spectrum.points:
        x = _x(p.value, lo, hi)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y - 4}" x2="{x:.2f}" '
            f'y2="{axis_y + 4}" stroke="#444" stroke-width="1"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 16}" font-size="10" '
            f'text-anchor="middle" font-family="monospace">{p}</text>')

    for row, bar in enumerate(b.bars):  # Barcode keeps them sorted
        y = _MARGIN + _ROW * row
        color = _COLORS[bar.parity]
        x1 = _MARGIN - _ARROW if bar.birth.is_neg_inf else _x(bar.birth.value, lo, hi)
        x2 = _WIDTH - _MARGIN + _ARROW if bar.death.is_pos_inf \
            else _x(bar.death.value, lo, hi)
        dash = ' stroke-dasharray="6 3"' if bar.truncated else ""
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y}" x2="{x2:.2f}" y2="{y}" '
            f'stroke="{color}" stroke-width="4"{dash}/>')
        if not bar.birth.is_neg_inf:
            parts.append(
                f'<circle cx="{x1:.2f}" cy="{y}" r="3" fill="{color}"/>')
        if bar.death.is_pos_inf or bar.truncated:
            parts.append(
                f'<text x="{x2 + 4:.2f}" y="{y + 4}" font-size="10" '
                f'fill="{color}" font-family="monospace">'
                f'{"&#8805;" if bar.truncated else "&#8734;"}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
