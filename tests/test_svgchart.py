import math
import os

import pytest

from agrosim import svgchart
from agrosim.svgchart import LineChart, render_svg, save_svg


def _chart():
    chart = LineChart("demo", xlabel="t", ylabel="y")
    chart.add_series("a", [0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    chart.add_series("b", [0.0, 0.5, 1.0], [1.0, 0.2, -0.4])
    return chart


def test_render_is_valid_standalone_svg():
    svg = render_svg([_chart()])
    assert svg.startswith("<?xml")
    assert svg.count("<svg") == 1 and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and ">a<" in svg and ">b<" in svg


def test_render_is_deterministic():
    assert render_svg([_chart()]) == render_svg([_chart()])


def test_stacked_charts_extend_height():
    one = render_svg([_chart()])
    two = render_svg([_chart(), _chart()])
    assert 'height="320"' in one
    assert 'height="640"' in two


def test_non_finite_points_are_dropped():
    chart = LineChart("gappy")
    chart.add_series("a", [0.0, 1.0, 2.0], [0.0, math.nan, 1.0])
    svg = render_svg([chart])
    assert "nan" not in svg


def test_mismatched_series_lengths_rejected():
    chart = LineChart("bad")
    with pytest.raises(ValueError):
        chart.add_series("a", [0.0, 1.0], [0.0])


def test_empty_document_rejected():
    with pytest.raises(ValueError):
        render_svg([])


def test_save_svg_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "plot.svg"
    save_svg([_chart()], str(path))
    assert path.read_text(encoding="utf-8") == render_svg([_chart()])

    def broken(charts):
        raise RuntimeError("render failed")

    monkeypatch.setattr(svgchart, "render_svg", broken)
    with pytest.raises(RuntimeError, match="render failed"):
        save_svg([_chart(), _chart()], str(path))
    assert path.read_text(encoding="utf-8") == render_svg([_chart()])
    assert os.listdir(tmp_path) == ["plot.svg"]
