"""Diagnostic reports for the product-of-projections spectrum.

A report is the JSON document itself: a plain dict holding the observed
spectrum, the two threshold bands (green: bootstrap bound on the joint
cluster, blue: random-alignment bound on the noise cluster), the theoretical
noise density mapped to the singular-value axis, and, when the planted truth
is available, the noiseless spectrum lines and the three cluster intervals,
then a fixed 40-bin histogram on [0, 1]. Reports render to a standalone SVG
on a fixed 900x480 canvas, and :func:`export_json` writes the dict as it is.
"""

from __future__ import annotations

import json

import numpy as np

from .decomposition import DecompositionResult, ProductSpectrum
from .linalg import principal_spectrum
from .noise import NoiseSpectrumLaw, continuous_mass, density_sv_scale, noise_law
from .oracle import epsilon_pair, truth_oracle

HISTOGRAM_BINS = 40
DENSITY_POINTS = 200


def _scaled_density_curve(law: NoiseSpectrumLaw, edges, blue_hi, values) -> np.ndarray:
    """Noise density on the singular-value axis, scaled to histogram counts.

    The curve area is matched to the count-area of the sub-threshold part of
    the histogram (a visual convention: the continuous law describes only the
    noise-aligned cluster).
    """
    mass = continuous_mass(law)
    if mass <= 0.0 or law.lambda_plus <= law.lambda_minus:
        return np.zeros((0, 2))
    s = np.linspace(float(np.sqrt(law.lambda_minus)), float(np.sqrt(law.lambda_plus)),
                    DENSITY_POINTS)
    n_below = int(np.count_nonzero(np.asarray(values) <= blue_hi))
    scale = n_below * (edges[1] - edges[0]) / mass
    return np.column_stack([s, scale * density_sv_scale(law, s)])


def report_from_parts(spectrum: ProductSpectrum, q1: float, q2: float,
                      truth_lines=None, theorem1=None) -> dict:
    """The report document for a spectrum and the rank-to-dimension ratios.

    Keys, in order: ``spectrum``, ``green_band``, ``blue_band``, ``density``
    (pairs ``(s, g(s))``, count-scaled), ``truth_lines`` and
    ``theorem1_intervals`` when given, then ``histogram``.
    """
    counts, edges = np.histogram(spectrum.values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    law = noise_law(q1, q2)
    curve = _scaled_density_curve(law, edges, spectrum.noise_threshold, spectrum.values)
    report = {
        "spectrum": np.asarray(spectrum.values, dtype=float).tolist(),
        "green_band": [spectrum.bootstrap_threshold, 1.0],
        "blue_band": [0.0, spectrum.noise_threshold],
        "density": curve.tolist(),
    }
    if truth_lines is not None:
        report["truth_lines"] = np.asarray(truth_lines, dtype=float).tolist()
    if theorem1 is not None:
        report["theorem1_intervals"] = [[lo, hi] for lo, hi in theorem1]
    report["histogram"] = {"edges": edges.tolist(), "counts": counts.tolist()}
    return report


def build_report(result: DecompositionResult, truth=None) -> dict:
    """Report for a decomposition result; truth-dependent keys appear iff ``truth`` is given.

    ``truth`` is a :class:`ppdecomp.simulate.SimTruth` (or anything exposing
    ``joint`` and ``individuals``). The noise density and truth-derived
    keys refer to the pair of views whose spectrum the result reports.
    """
    n = result.joint.shape[0]
    i, j = result.binding_pair
    q1 = result.marginal_ranks[i] / n
    q2 = result.marginal_ranks[j] / n
    truth_lines = intervals = None
    if truth is not None:
        x_i = np.hstack([truth.joint, truth.individuals[i]])
        x_j = np.hstack([truth.joint, truth.individuals[j]])
        truth_lines = principal_spectrum(x_i, x_j)
        eps1, eps2 = epsilon_pair(x_i, x_j, result.view_bases[i], result.view_bases[j])
        intervals = truth_oracle(truth.joint, (truth.individuals[i], truth.individuals[j]),
                                 eps1, eps2).cluster_intervals
    return report_from_parts(result.spectrum, q1, q2, truth_lines=truth_lines,
                             theorem1=intervals)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(report: dict) -> str:
    """Standalone 900x480 SVG: grey histogram, translucent bands, density polyline, truth lines.

    Deterministic: identical reports render to byte-identical documents.
    """
    width, height = 900, 480
    left, right, top, bottom = 64, 18, 18, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    counts = report["histogram"]["counts"]
    edges = report["histogram"]["edges"]
    curve = report["density"]
    g_max = float(max((g for _, g in curve), default=0.0))
    y_max = max(float(max(counts, default=0.0)), g_max, 1.0)

    def sx(v):
        return left + v * plot_w

    def sy(v):
        return top + (1.0 - v / y_max) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']

    for (lo, hi), color in ((report["blue_band"], "#4477cc"),
                            (report["green_band"], "#44aa66")):
        w_px = (hi - lo) * plot_w
        if w_px >= 0.01:
            parts.append(
                f'<rect class="band-{color[1:]}" x="{_fmt(sx(lo))}" y="{_fmt(top)}" '
                f'width="{_fmt(w_px)}" height="{_fmt(plot_h)}" fill="{color}" '
                f'fill-opacity="0.25"/>')

    for k, c in enumerate(counts):
        if c <= 0:
            continue
        x0, x1 = sx(edges[k]), sx(edges[k + 1])
        y0 = sy(float(c))
        parts.append(
            f'<rect class="bar" x="{_fmt(x0)}" y="{_fmt(y0)}" '
            f'width="{_fmt(x1 - x0)}" height="{_fmt(top + plot_h - y0)}" '
            f'fill="#999999" stroke="#666666" stroke-width="0.5"/>')

    if g_max > 0.0:
        pts = " ".join(f"{_fmt(sx(s))},{_fmt(sy(g))}" for s, g in curve)
        parts.append(
            f'<polyline class="density" points="{pts}" fill="none" '
            f'stroke="#223388" stroke-width="1.5"/>')

    for v in report.get("truth_lines", ()):
        parts.append(
            f'<line class="truth-line" x1="{_fmt(sx(v))}" y1="{_fmt(top)}" '
            f'x2="{_fmt(sx(v))}" y2="{_fmt(top + plot_h)}" '
            f'stroke="#cc2222" stroke-width="1"/>')

    axis_y = top + plot_h
    parts.append(f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(axis_y)}" '
                 f'x2="{_fmt(left + plot_w)}" y2="{_fmt(axis_y)}" stroke="#000000"/>')
    parts.append(f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(top)}" '
                 f'x2="{_fmt(left)}" y2="{_fmt(axis_y)}" stroke="#000000"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(tick)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(axis_y + 4)}" stroke="#000000"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 18)}" font-size="12" '
                     f'text-anchor="middle">{tick:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = sy(frac * y_max)
        parts.append(f'<line x1="{_fmt(left - 4)}" y1="{_fmt(y)}" x2="{_fmt(left)}" '
                     f'y2="{_fmt(y)}" stroke="#000000"/>')
        parts.append(f'<text x="{_fmt(left - 8)}" y="{_fmt(y + 4)}" font-size="12" '
                     f'text-anchor="end">{frac * y_max:g}</text>')
    parts.append(f'<text x="{_fmt(left + plot_w / 2)}" y="{_fmt(height - 8)}" '
                 f'font-size="13" text-anchor="middle">singular value</text>')
    parts.append(f'<text x="16" y="{_fmt(top + plot_h / 2)}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {_fmt(top + plot_h / 2)})">'
                 f'count</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_json(report: dict) -> str:
    """The report document as JSON text; optional keys are absent, not null."""
    return json.dumps(report, indent=1) + "\n"
