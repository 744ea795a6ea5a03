"""Piecewise-constant control paths lambda(s) and the time map x0(s) both ways.

A path is a finite list of constant segments covering (0, S]. Integrals of
lambda are exact for this class, which makes the closed-form phase solutions
and the time map machine-precision operations: x0(s) is LambdaPath.integral and
s(x0) internal_time_map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LambdaPath", "internal_time_map", "load_path_csv"]


@dataclass(frozen=True)
class LambdaPath:
    """lambda(s) held constant on segments of (0, S].

    breakpoints are the segment end times, strictly increasing, the last one
    equal to the total duration S; values[j] is the constant lambda (momentum
    units) on segment j, i.e. on (breakpoints[j-1], breakpoints[j]] with an
    implicit start at s = 0. Every entry, and the running integral of lambda,
    must be finite. Instances are immutable, their segment starts, durations and
    running integral built once, read-only; editing helpers return new paths.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size == 0 or bp.size != vals.size:
            raise ValueError("breakpoints and values must be equal-length 1d arrays")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("path contains non-finite entries")
        if bp[0] <= 0.0 or np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be positive and strictly increasing")
        starts = np.concatenate(([0.0], bp[:-1]))
        durations = bp - starts
        with np.errstate(over="ignore", invalid="ignore"):
            prefix = np.concatenate(([0.0], np.cumsum(vals * durations)))
        if not np.isfinite(prefix[-1]):
            raise ValueError("the running integral of lambda overflows")
        for name, arr in {"breakpoints": bp, "values": vals, "starts": starts,
                          "durations": durations, "_prefix": prefix,
                          "_cumulative": prefix[1:]}.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def constant(cls, lam: float, S: float) -> "LambdaPath":
        return cls(np.array([S]), np.array([lam]))

    @classmethod
    def equal_segments(cls, values, S: float) -> "LambdaPath":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            raise ValueError("need at least one segment value")
        return cls(S * np.arange(1, n + 1) / n, values)

    @property
    def S(self) -> float:
        """Total internal-time duration."""
        return float(self.breakpoints[-1])

    @property
    def num_segments(self) -> int:
        return int(self.breakpoints.size)

    def integral(self, upto: float | np.ndarray | None = None) -> float | np.ndarray:
        """Running integral of lambda from 0 to `upto` (default: full S), exact:
        cumulative_integral's prefix plus the part of upto's own segment.

        upto is a number, giving a float, or an array, giving one of its shape
        equal elementwise to the number's result; one element outside [0, S]
        or NaN refuses the whole call.
        """
        if upto is None:
            return float(self._prefix[-1])
        s = np.asarray(upto, dtype=float)
        bad = s[~((s >= 0.0) & (s <= self.S))]
        if bad.size:
            raise ValueError(f"s = {float(bad[0])!r} outside path domain [0, {self.S}]")
        # segments are left-open, so a breakpoint belongs to the segment it ends
        j = np.searchsorted(self.breakpoints, s, side="left")
        x = self._prefix[j] + self.values[j] * (s - self.starts[j])
        return float(x) if x.ndim == 0 else x

    def cumulative_integral(self) -> np.ndarray:
        """Integral of lambda up to each breakpoint."""
        return self._cumulative

    def with_value(self, j: int, lam: float) -> "LambdaPath":
        vals = np.array(self.values)
        vals[j] = lam
        return LambdaPath(self.breakpoints, vals)

    def scaled_to(self, S: float) -> "LambdaPath":
        """Same segment shape and values, stretched to total duration S."""
        if S <= 0.0:
            raise ValueError("duration must be positive")
        return LambdaPath(self.breakpoints * (S / self.S), self.values)

    def reversed(self) -> "LambdaPath":
        return LambdaPath(np.cumsum(self.durations[::-1]), self.values[::-1])


def internal_time_map(path: LambdaPath, x0: float | np.ndarray) -> float | np.ndarray:
    """Internal time s at which the running integral of lambda reaches x0.

    x0 is a number, giving a float, or an array, giving one of its shape equal
    elementwise to the number's result; one element out of range or NaN
    refuses the whole call. Every lambda must be positive. The reachable
    total is the last running sum, and x0 is measured from the nearer end of
    its segment, so running sums map to breakpoints exactly.
    """
    if np.any(path.values <= 0.0):
        raise ValueError("time map needs strictly positive lambda on every segment")
    cum = path.cumulative_integral()
    total = float(cum[-1])
    x = np.asarray(x0, dtype=float)
    bad = x[~((x >= 0.0) & (x <= total))]
    if bad.size:
        raise ValueError(f"x0 = {float(bad[0])!r} outside the reachable range [0, {total!r}]")
    j = np.searchsorted(cum, x, side="left")
    before, end, lam = path._prefix[j], cum[j], path.values[j]
    s = np.where(x - before <= end - x, path.starts[j] + (x - before) / lam,
                 path.breakpoints[j] - (end - x) / lam)
    return float(s) if s.ndim == 0 else s


def load_path_csv(filename) -> LambdaPath:
    """Read a lambda path from CSV with columns s_end,lambda (header optional).

    Blank lines and lines starting with # are skipped; the header, if any, is
    the first other row and reads exactly s_end,lambda. Rows must be sorted
    by s_end. A leading UTF-8 byte-order mark is dropped. Errors name the
    offending line.
    """
    ends, vals = [], []
    header_seen = False
    with open(filename, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if not ends and not header_seen and parts == ["s_end", "lambda"]:
                header_seen = True
                continue
            if len(parts) != 2:
                raise ValueError(f"{filename}, line {lineno}: expected two columns, got {len(parts)}")
            try:
                ends.append(float(parts[0]))
                vals.append(float(parts[1]))
            except ValueError:
                raise ValueError(f"{filename}, line {lineno}: non-numeric entry {line!r}") from None
    if not ends:
        raise ValueError(f"{filename}: no data rows")
    try:
        return LambdaPath(np.array(ends), np.array(vals))
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from None

