import math

import numpy as np
import pytest

from qaction import LambdaPath, load_path_csv


def test_constant_path():
    p = LambdaPath.constant(2.5, 4.0)
    assert p.S == 4.0
    assert p.num_segments == 1
    assert p.integral() == 10.0


def test_equal_segments():
    p = LambdaPath.equal_segments([1.0, 2.0, 3.0], 3.0)
    assert p.num_segments == 3
    np.testing.assert_allclose(p.breakpoints, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(p.durations, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(p.starts, [0.0, 1.0, 2.0])
    assert p.integral() == 6.0
    with pytest.raises(ValueError, match="at least one segment value"):
        LambdaPath.equal_segments([], 1.0)


def test_partial_integral_exact():
    p = LambdaPath(breakpoints=np.array([1.0, 2.5]), values=np.array([2.0, 1.0]))
    assert p.integral(upto=0.0) == 0.0
    assert p.integral(upto=0.5) == 1.0
    assert p.integral(upto=1.0) == 2.0
    assert p.integral(upto=2.0) == 3.0
    assert p.integral(upto=2.5) == 3.5
    np.testing.assert_allclose(p.cumulative_integral(), [2.0, 3.5])
    for upto in (-0.5, 3.0):
        with pytest.raises(ValueError, match="outside path domain"):
            p.integral(upto=upto)


def test_with_value_and_scaled_to():
    p = LambdaPath.equal_segments([1.0, 2.0], 2.0)
    q = p.with_value(1, 9.0)
    assert q.values[1] == 9.0
    assert q.values[0] == 1.0
    assert p.values[1] == 2.0  # original untouched
    r = p.scaled_to(4.0)
    assert r.S == 4.0
    np.testing.assert_allclose(r.durations, [2.0, 2.0])
    np.testing.assert_allclose(r.values, p.values)
    with pytest.raises(ValueError, match="duration must be positive"):
        p.scaled_to(0.0)


def test_reversed():
    p = LambdaPath(breakpoints=np.array([1.0, 4.0]), values=np.array([2.0, 3.0]))
    q = p.reversed()
    assert q.S == p.S
    np.testing.assert_allclose(q.values, [3.0, 2.0])
    np.testing.assert_allclose(q.durations, [3.0, 1.0])


@pytest.mark.parametrize("bps,vals", [
    ([1.0, 1.0], [1.0, 2.0]),     # not strictly increasing
    ([-1.0, 2.0], [1.0, 2.0]),    # nonpositive breakpoint
    ([0.0, 2.0], [1.0, 2.0]),     # zero breakpoint means S starts at 0
    ([1.0], [1.0, 2.0]),          # length mismatch
    ([1.0, float("nan")], [1.0, 2.0]),
    ([1.0, 2.0], [1.0, float("inf")]),
])
def test_invalid_paths_rejected(bps, vals):
    with pytest.raises(ValueError):
        LambdaPath(breakpoints=np.asarray(bps, dtype=float),
                   values=np.asarray(vals, dtype=float))


def test_csv_round_trip(tmp_path):
    # 17 significant digits identify every double, so the values come back exactly
    ends = [0.125, 2.0, 2.0 + math.pi]
    vals = [1.5, -0.25, math.e / 3.0]
    f = tmp_path / "path.csv"
    f.write_text("s_end,lambda\n"
                 + "".join(f"{s:.17g},{v:.17g}\n" for s, v in zip(ends, vals)))
    q = load_path_csv(str(f))
    assert list(q.breakpoints) == ends
    assert list(q.values) == vals


def test_csv_header_optional(tmp_path):
    f = tmp_path / "bare.csv"
    f.write_text("1.0,2.0\n2.0,1.0\n")
    p = load_path_csv(str(f))
    assert p.num_segments == 2
    assert p.S == 2.0


def test_csv_malformed_names_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("s_end,lambda\n1.0,2.0\noops\n")
    with pytest.raises(ValueError) as err:
        load_path_csv(str(f))
    msg = str(err.value)
    assert "line 3" in msg
    assert "bad.csv" in msg


def test_csv_header_after_comment(tmp_path):
    # the header is the first row that is neither blank nor a comment
    f = tmp_path / "commented.csv"
    f.write_text("# exported path\n\ns_end,lambda\n1.0,2.0\n2.0,1.0\n")
    p = load_path_csv(str(f))
    assert list(p.breakpoints) == [1.0, 2.0]
    assert list(p.values) == [2.0, 1.0]
    late = tmp_path / "late.csv"
    late.write_text("1.0,2.0\ns_end,lambda\n2.0,1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_path_csv(str(late))


def test_csv_header_with_extra_cells_rejected(tmp_path):
    # only the exact two-cell header is skipped; a wider one is malformed like
    # any other three-column row
    f = tmp_path / "wide.csv"
    f.write_text("s_end,lambda,extra\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 1: expected two columns, got 3"):
        load_path_csv(str(f))


def test_csv_without_data_rows(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("# only a comment\n\n# and another\n")
    with pytest.raises(ValueError, match="empty.csv: no data rows"):
        load_path_csv(str(f))


def test_csv_decreasing_ends_name_the_file(tmp_path):
    f = tmp_path / "backwards.csv"
    f.write_text("s_end,lambda\n2.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="backwards.csv: breakpoints must be positive "
                                         "and strictly increasing"):
        load_path_csv(str(f))
