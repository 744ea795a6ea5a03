import math

import numpy as np
import pytest

from qaction import LambdaPath, internal_time_map, load_path_csv
from conftest import record_calls


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


def _integral_one_s(path, s):
    """The running integral at one s, in Python floats: the reference."""
    cum = path.cumulative_integral()
    j = int(np.searchsorted(path.breakpoints, s, side="left"))
    before = float(cum[j - 1]) if j > 0 else 0.0
    return before + float(path.values[j]) * (s - float(path.starts[j]))


def test_integral_maps_an_array_bit_for_bit():
    # one array call equals the calls one s at a time and the Python-float
    # reference, bit for bit, ends and breakpoints included
    rng = np.random.default_rng(5)
    for _ in range(200):
        nseg = int(rng.integers(1, 6))
        path = LambdaPath(np.cumsum(rng.uniform(0.1, 2.0, nseg)),
                          rng.uniform(0.1, 3.0, nseg))
        s = np.concatenate(([0.0], path.breakpoints, rng.uniform(0.0, path.S, 20)))
        x = path.integral(upto=s)
        assert x.shape == s.shape
        for si, xi in zip(s.tolist(), x.tolist()):
            assert xi == path.integral(upto=si) == _integral_one_s(path, si)
    assert path.integral(upto=np.full((2, 3), 0.5 * path.S)).shape == (2, 3)
    assert isinstance(path.integral(upto=0.5 * path.S), float)
    for bad in (np.nan, -1e-300, path.S * (1.0 + 1e-15)):
        with pytest.raises(ValueError, match=f"s = {bad!r} outside path domain"):
            path.integral(upto=np.array([0.0, bad, path.S]))


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
    ([1e10], [1e300]),            # lambda * duration overflows, with no numpy
    ([1.0, 2.0], [1e308, 1.7e308]),  # warning; so does only their running sum
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


@pytest.mark.parametrize("text", ["\ufeffs_end,lambda\n1.0,2.0\n2.0,1.0\n",
                                  "\ufeff1.0,2.0\n2.0,1.0\n"],
                         ids=["before-header", "before-data-row"])
def test_csv_leading_byte_order_mark_is_dropped(tmp_path, text):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first row
    f = tmp_path / "bom.csv"
    f.write_text(text, encoding="utf-8")
    p = load_path_csv(str(f))
    assert list(p.breakpoints) == [1.0, 2.0] and list(p.values) == [2.0, 1.0]


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


def test_internal_time_map_exact():
    const = LambdaPath.constant(4.0, 3.0)
    assert internal_time_map(const, 1.0) == 1.0 / 4.0
    assert internal_time_map(const, 0.0) == 0.0
    two = LambdaPath(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert internal_time_map(two, 1.0) == 1.0
    assert internal_time_map(two, 2.0) == 1.5
    assert internal_time_map(two, 3.0) == 2.0
    with pytest.raises(ValueError):
        internal_time_map(two, -0.1)
    with pytest.raises(ValueError):
        internal_time_map(two, 3.1)
    # one element out of range, or NaN, refuses the whole array
    with pytest.raises(ValueError, match="x0 = 3.1 outside"):
        internal_time_map(two, np.array([0.5, 3.1, 1.0]))
    with pytest.raises(ValueError, match="x0 = nan outside"):
        internal_time_map(two, np.array([[0.5, 1.0], [np.nan, 2.0]]))
    signed = LambdaPath(np.array([1.0, 2.0]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        internal_time_map(signed, 0.5)


def test_internal_time_map_total_is_the_running_sum():
    # the reachable total is the last running sum of the segments, which a
    # dot-product integral would miss by an ulp (here 1.1e-16 above); x0 at
    # that total lies in the last segment and maps to its end
    path = LambdaPath.equal_segments([0.3, 0.6, 0.9, 1.2], 1.1)
    total = float(path.cumulative_integral()[-1])
    assert path.integral() == total
    assert math.isclose(internal_time_map(path, total), path.S, rel_tol=1e-15)
    with pytest.raises(ValueError, match="reachable range"):
        internal_time_map(path, total + 1e-12)


def test_internal_time_map_of_the_integral_is_the_duration():
    # path.integral() is the one total of lambda, so it maps back to S on
    # every path (a dot-product total was refused as out of range on 2 395
    # of these 20 000). x0 is measured from the nearer end of its segment, so
    # every running sum maps to its breakpoint and 0 to 0, exactly; measured
    # from the segment's start, the total missed S on 4 783 of these paths
    rng = np.random.default_rng(0)
    for _ in range(20_000):
        n = int(rng.integers(2, 6))
        path = LambdaPath(np.cumsum(rng.uniform(0.1, 2.0, n)), rng.uniform(0.1, 3.0, n))
        assert path.integral() == path.cumulative_integral()[-1]
        assert internal_time_map(path, 0.0) == 0.0, path
        # the last running sum is the total, the last breakpoint S
        ends = internal_time_map(path, path.cumulative_integral())
        assert np.array_equal(ends, path.breakpoints), path


def test_derived_arrays_are_built_once(monkeypatch):
    # the starts, durations and running integral are built with the path and
    # every later read, integral and time map included, returns those arrays
    cumsums = record_calls(monkeypatch, np, "cumsum")
    path = LambdaPath(np.array([1.0, 2.5, 4.0]), np.array([2.0, 1.0, 3.0]))
    assert len(cumsums) == 1
    for first, again in ((path.starts, path.starts), (path.durations, path.durations),
                         (path.cumulative_integral(), path.cumulative_integral())):
        assert again is first and not first.flags.writeable
    assert path.integral() == 8.0
    assert path.integral(np.array([0.5, 2.0, 3.0])).tolist() == [1.0, 3.0, 5.0]
    assert internal_time_map(path, np.array([1.0, 3.5, 8.0])).tolist() == [0.5, 2.5, 4.0]
    assert len(cumsums) == 1


def test_internal_time_map_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(20):
        nseg = int(rng.integers(1, 7))
        path = LambdaPath.equal_segments(rng.uniform(0.2, 30.0, size=nseg),
                                         float(rng.uniform(0.1, 4.0)))
        total = path.integral()
        xs = np.sort(rng.uniform(0.0, total, size=12))
        s_prev = -1.0
        mapped = internal_time_map(path, xs)
        assert mapped.shape == xs.shape
        for x0, s_array in zip(xs, mapped):
            s = internal_time_map(path, float(x0))
            assert s == s_array  # one array call, bit for bit the scalar calls
            assert s > s_prev  # strictly increasing map
            s_prev = s
        assert np.all(np.abs(path.integral(upto=mapped) - xs) <= 1e-12 * (1.0 + xs))
