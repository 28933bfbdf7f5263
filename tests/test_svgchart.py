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


# (1e17, 1e17): 1e17 + 1.0 == 1e17, so a unit either side is no span at
# all; (-1e308, 1e308): hi - lo overflows
@pytest.mark.parametrize("lo, hi", [(1e17, 1e17), (-1e308, 1e308)])
def test_ticks_of_degenerate_spans_are_finite(lo, hi):
    ticks = svgchart._nice_ticks(lo, hi)
    assert len(ticks) >= 2
    assert all(math.isfinite(v) for v in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))
    assert ticks[0] <= hi and ticks[-1] >= lo


def test_points_of_overflowing_spans_are_finite():
    # x and y from -1e308 to 1e308: hi - lo overflows on both axes
    chart = LineChart("wide")
    chart.add_series("a", [-1e308, 0.0, 1e308], [-1e308, 0.0, 1e308])
    svg = render_svg([chart])
    points = svg.split('<polyline points="')[1].split('"')[0].split()
    assert "nan" not in svg and "inf" not in svg
    xy = [tuple(map(float, p.split(","))) for p in points]
    assert [x for x, _ in xy] == [64.0, 344.0, 624.0]  # the plot's left, middle, right
    assert xy[1][1] == 155.0  # 0 sits midway between the symmetric y bounds
    assert all(34.0 <= y <= 276.0 for _, y in xy)


def test_flat_series_far_from_zero_renders():
    chart = LineChart("flat")
    chart.add_series("a", [0.0, 1.0], [5.7e17, 5.7e17])
    x_lo, x_hi, y_lo, y_hi = chart._bounds()
    assert x_lo < x_hi and y_lo < 5.7e17 < y_hi
    svg = render_svg([chart])
    assert "nan" not in svg and "inf" not in svg


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
