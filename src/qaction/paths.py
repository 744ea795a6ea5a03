"""Piecewise-constant control paths lambda(s) on the internal-time axis.

A path is a finite list of constant segments covering (0, S]. Integrals of
lambda and of lambda's running integral are exact for this class, which is
what makes the closed-form phase solutions and the time-map inversion
machine-precision operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LambdaPath", "load_path_csv"]


@dataclass(frozen=True)
class LambdaPath:
    """lambda(s) held constant on segments of (0, S].

    breakpoints are the segment end times, strictly increasing, the last one
    equal to the total duration S; values[j] is the constant lambda (momentum
    units) on segment j, i.e. on (breakpoints[j-1], breakpoints[j]] with an
    implicit start at s = 0. Instances are immutable; editing helpers return
    new paths.
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
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

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

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0.0], self.breakpoints[:-1]))

    @property
    def durations(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.breakpoints)))

    def _segment_index(self, s: float) -> int:
        if not 0.0 <= s <= self.S:
            raise ValueError(f"s = {s} outside path domain [0, {self.S}]")
        # segments are left-open, so a breakpoint belongs to the segment it ends
        j = int(np.searchsorted(self.breakpoints, s, side="left"))
        return min(j, self.num_segments - 1)

    def integral(self, upto: float | None = None) -> float:
        """Running integral of lambda from 0 to `upto` (default: full S), exact:
        cumulative_integral's prefix plus the part of upto's own segment."""
        cum = self.cumulative_integral()
        if upto is None:
            return float(cum[-1])
        j = self._segment_index(upto)
        before = float(cum[j - 1]) if j > 0 else 0.0
        return before + float(self.values[j]) * (upto - float(self.starts[j]))

    def cumulative_integral(self) -> np.ndarray:
        """Integral of lambda up to each breakpoint."""
        return np.cumsum(self.values * self.durations)

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
        durs = self.durations[::-1]
        return LambdaPath(np.cumsum(durs), self.values[::-1])


def load_path_csv(filename) -> LambdaPath:
    """Read a lambda path from CSV with columns s_end,lambda (header optional).

    Blank lines and lines starting with # are skipped; the header, if any, is
    the first other row and reads exactly s_end,lambda. Rows must be sorted
    by s_end. Errors name the offending line.
    """
    ends, vals = [], []
    header_seen = False
    with open(filename, "r", encoding="utf-8") as fh:
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

