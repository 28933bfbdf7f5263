import math
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _reference_points(chart: LineChart) -> list[str]:
    """Each series' ``points``, written one point at a time: two ``_axis``
    calls and an f-string per finite pair, as the renderer once did."""
    x_lo, x_hi, y_lo, y_hi = chart._bounds()
    sx = svgchart._axis(x_lo, x_hi, svgchart._MARGIN_L, svgchart._WIDTH - svgchart._MARGIN_R)
    sy = svgchart._axis(y_lo, y_hi, svgchart._HEIGHT - svgchart._MARGIN_B, svgchart._MARGIN_T)
    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y)
                     if math.isfinite(x) and math.isfinite(y))
            for s in chart.series]


_INF, _NAN = math.inf, math.nan
#: Any double, NaN and the infinities included, with the ends of the range
#: drawn often enough that ``hi - lo`` overflows.
_VALUES = st.one_of(st.floats(), st.sampled_from([-1e308, 1e308, -_INF, _INF, _NAN]))


@given(st.lists(st.lists(st.tuples(_VALUES, _VALUES), max_size=12), min_size=1, max_size=3))
@example([[(0.0, _NAN), (1.0, 2.0), (_INF, 3.0), (2.0, -_INF), (3.0, 1.0)]])
@example([[(_NAN, 1.0), (0.0, _INF)], [(-_INF, _NAN)]])  # no finite pair at all
@example([[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]])  # constant
@example([[(-1e308, -1e308), (0.0, 0.0), (1e308, 1e308)]])  # both spans overflow
@example([[(0.0, -1.7e308), (1.0, 1.7e308)], [(-1e308, 1.0), (1e308, 2.0)]])
# x pixel 76.375, written 76.38; (v - lo) * ((end - start) / (hi - lo)) gives
# 76.37499999999999, written 76.37
@example([[(0.0, 0.0), (0.06629464285714282, 0.5), (3.0, 1.0)]])
@settings(max_examples=300, deadline=None)
def test_polyline_points_match_the_per_point_reference(series):
    chart = LineChart("points")
    for i, pairs in enumerate(series):
        chart.add_series(str(i), [x for x, _ in pairs], [y for _, y in pairs])
    got = re.findall(r'<polyline points="([^"]*)"', chart.render_group())
    assert got == _reference_points(chart)


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
