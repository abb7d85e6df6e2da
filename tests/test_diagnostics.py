import hashlib
import json
import math

import numpy as np
import pytest

import ppdecomp as ppd
from ppdecomp import (BootstrapConfig, ProductSpectrum, build_report, export_json,
                      render_svg, report_from_parts)


def make_result(snr=2.0, angle=50.0, seed=0, reps=20):
    cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                        angle_deg=angle, snr=snr, seed=seed)
    views, truth = ppd.generate(cfg)
    res = ppd.decompose(views[0], views[1], ranks=cfg.marginal_ranks,
                        bootstrap=BootstrapConfig(replicates=reps, seed=seed + 1))
    return res, truth


def test_build_report_without_truth_omits_truth_fields():
    res, _ = make_result()
    report = build_report(res)
    assert "truth_lines" not in report
    assert "theorem1_intervals" not in report
    counts, edges = report["histogram"]["counts"], report["histogram"]["edges"]
    assert sum(counts) == res.spectrum.values.size
    assert len(counts) == 40
    assert edges[0] == 0.0 and edges[-1] == 1.0


def test_build_report_with_truth():
    res, truth = make_result()
    report = build_report(res, truth=truth)
    assert len(report["truth_lines"]) == 8
    assert len(report["theorem1_intervals"]) == 3
    for lo, hi in report["theorem1_intervals"]:
        assert 0.0 <= lo <= hi <= 1.0


def test_build_report_band_geometry():
    res, _ = make_result()
    report = build_report(res)
    assert report["green_band"] == [res.spectrum.bootstrap_threshold, 1.0]
    assert report["blue_band"] == [0.0, res.spectrum.noise_threshold]


def test_build_report_noiseless_green_band_degenerates():
    res, _ = make_result(snr=math.inf, reps=6)
    report = build_report(res)
    assert report["green_band"][0] == pytest.approx(1.0, abs=1e-8)


def test_build_report_density_support():
    res, _ = make_result()
    report = build_report(res)
    law = ppd.noise_law(res.marginal_ranks[0] / 50, res.marginal_ranks[1] / 50)
    assert report["density"][0][0] == pytest.approx(math.sqrt(law.lambda_minus))
    assert report["density"][-1][0] == pytest.approx(math.sqrt(law.lambda_plus))


def test_build_report_fig_style_band_ordering():
    # High-SNR, 50-degree case with mild rank over-specification: the
    # bootstrap band sits strictly above the noise band and the histogram
    # shows all three clusters (the extra directions land near zero).
    cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                        angle_deg=50.0, snr=8.0, seed=3)
    views, truth = ppd.generate(cfg)
    res = ppd.decompose(views[0], views[1], ranks=(10, 9),
                        bootstrap=BootstrapConfig(replicates=20, seed=4))
    report = build_report(res, truth=truth)
    assert report["green_band"][0] > report["blue_band"][1]
    counts = np.asarray(report["histogram"]["counts"])
    edges = np.asarray(report["histogram"]["edges"][:-1])
    assert counts[edges >= 0.95].sum() >= 4                      # joint cluster
    mid = (edges >= 0.5) & (edges <= 0.8)
    assert counts[mid].sum() >= 3                                # rotated cluster
    assert counts[edges < 0.4].sum() >= 1                        # noise cluster


def hand_report():
    spectrum = ProductSpectrum(values=np.array([0.9, 0.5, 0.1]),
                               bootstrap_threshold=0.8, noise_threshold=0.6)
    return report_from_parts(spectrum, 0.2, 0.3)


def test_render_svg_element_counts():
    svg = render_svg(hand_report())
    assert svg.count('class="band-') == 2
    assert svg.count("<polyline") == 1
    assert svg.count('class="bar"') == 3
    assert "singular value" in svg and "count" in svg


def test_render_svg_truth_lines_present_when_given():
    res, truth = make_result()
    svg = render_svg(build_report(res, truth=truth))
    assert svg.count('class="truth-line"') == 8


def empty_report():
    spectrum = ProductSpectrum(values=np.zeros(0), bootstrap_threshold=1.0 - 1e-9,
                               noise_threshold=0.0)
    return report_from_parts(spectrum, 0.0, 0.0)


def full_report():
    spectrum = ProductSpectrum(values=np.array([0.99, 0.7, 0.65, 0.2]),
                               bootstrap_threshold=0.95, noise_threshold=0.55)
    return report_from_parts(spectrum, 0.3, 0.25, truth_lines=[1.0, 0.72, 0.6],
                             theorem1=((0.93, 1.0), (0.6, 0.75), (0.0, 0.55)))


def test_render_svg_empty_spectrum_axes_only():
    svg = render_svg(empty_report())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert 'class="bar"' not in svg
    assert "<polyline" not in svg
    assert 'class="band-' not in svg


def test_render_svg_deterministic():
    report = hand_report()
    assert render_svg(report) == render_svg(report)


# sha256 of the rendered documents; a change to any output byte shows here.
# decompose output is left out on purpose: BLAS thread counts move its last digits.
PINNED = {
    "hand": ("6c6b2d64d85c116ebd264db0ef2a732b429f84f2c73a373db0da44e24535c7b8",
             "5c3a0e5a09a01306b07c672b39c856fe5cf9dbdfc42cf4d339b88ead3d67f6df"),
    "empty": ("50a07a2a299d83d0537412d106dd6fad736f0967e9add3a52eca049ed1cbdc23",
              "82a8d25ca0a63b263f976a4f96f49a429c54461af2217b2d68aeed37fac62914"),
    "full": ("a58d6006f979fc5b2a9a9e783353597443c18528cb9411052e715efbcc13cc93",
             "30b424b7a16124682ad94a5ed6faaca83bdddd09b4d8470f5bc78fb8c98f01cf"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_bytes_are_pinned(name):
    report = {"hand": hand_report, "empty": empty_report, "full": full_report}[name]()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (render_svg(report), export_json(report)))
    assert digests == PINNED[name]


def test_json_round_trip_plain():
    for report in (hand_report(), empty_report(), full_report()):
        assert json.loads(export_json(report)) == report


def test_json_round_trip_with_truth_fields():
    res, truth = make_result(seed=5)
    report = build_report(res, truth=truth)
    assert "truth_lines" in report and "theorem1_intervals" in report
    assert json.loads(export_json(report)) == report


def test_json_omits_absent_optionals():
    payload = json.loads(export_json(hand_report()))
    assert "truth_lines" not in payload
    assert "theorem1_intervals" not in payload
    assert list(payload) == ["spectrum", "green_band", "blue_band", "density", "histogram"]
    assert list(full_report()) == ["spectrum", "green_band", "blue_band", "density",
                                   "truth_lines", "theorem1_intervals", "histogram"]


def test_json_floats_round_trip_exactly():
    report = hand_report()
    payload = json.loads(export_json(report))
    assert payload["blue_band"][1] == report["blue_band"][1]
    for (s, g), (s2, g2) in zip(report["density"], payload["density"]):
        assert s == s2 and g == g2
