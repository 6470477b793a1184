"""Linear-response stick spectra: synthesis, merging, counting, broadening.

Line intensities are population differences times single-quantum
transition strengths, with the uniform small-flip-angle prefactor
dropped (it cancels in every ratio of interest).  Intensities keep their
sign: absorption is positive when the lower-m state of a transition is
the more populated one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nonunitary import TransitionGraph
from .output import write_csv
from .spin_core import frozen_array, require_finite

ZERO_SUM_DROP = 1e-8


@dataclass(frozen=True)
class StickSpectrum:
    """A list of (frequency, intensity) lines, optionally merged."""

    frequencies: np.ndarray = field(repr=False)
    intensities: np.ndarray = field(repr=False)
    merged: bool = False
    merge_tolerance: float | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        i = np.asarray(self.intensities, dtype=float)
        if f.shape != i.shape or f.ndim != 1:
            raise ValueError("frequencies and intensities must be matching vectors")
        if self.merged and f.size > 1 and np.diff(f).min() <= 0:
            raise ValueError("merged spectrum must have ascending frequencies")
        object.__setattr__(self, "frequencies", frozen_array(f))
        object.__setattr__(self, "intensities", frozen_array(i))

    @property
    def n_lines(self) -> int:
        return self.frequencies.shape[0]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["frequency", "intensity"], [self.frequencies, self.intensities])


def linear_response(populations: np.ndarray, graph: TransitionGraph) -> StickSpectrum:
    """One line per allowed transition, intensity (p_lower - p_upper) * strength."""
    p = np.asarray(populations, dtype=float)
    if p.shape != (graph.n_states,):
        raise ValueError(
            f"populations must have length {graph.n_states}, got {p.shape}"
        )
    intensities = (p[graph.lower] - p[graph.upper]) * graph.strengths
    return StickSpectrum(frequencies=graph.frequencies, intensities=intensities)


def merge_peaks(spectrum: StickSpectrum, tolerance: float) -> StickSpectrum:
    """Coalesce lines by transitive clustering on the sorted frequencies.

    Each cluster becomes one line at the |intensity|-weighted mean
    frequency with the summed intensity; clusters whose sum cancels below
    ``ZERO_SUM_DROP`` of the largest merged line are dropped.
    """
    require_finite("merge tolerance", tolerance, "positive")
    order = np.argsort(spectrum.frequencies, kind="stable")
    freqs = spectrum.frequencies[order]
    ints = spectrum.intensities[order]
    if freqs.size:
        # a cluster starts wherever the gap to the previous line exceeds the tolerance
        starts = np.flatnonzero(np.r_[True, ~(np.diff(freqs) <= tolerance)])
        weights = np.abs(ints)
        weight = np.add.reduceat(weights, starts)
        weighted = np.add.reduceat(weights * freqs, starts)
        plain = np.add.reduceat(freqs, starts) / np.diff(np.r_[starts, freqs.size])
        freqs = np.where(weight > 0, weighted / np.where(weight > 0, weight, 1.0), plain)
        ints = np.add.reduceat(ints, starts)
        keep = np.abs(ints) >= ZERO_SUM_DROP * np.abs(ints).max()
        freqs, ints = freqs[keep], ints[keep]
    return StickSpectrum(
        frequencies=freqs, intensities=ints, merged=True, merge_tolerance=tolerance
    )


def count_peaks(spectrum: StickSpectrum, intensity_floor: float = 1e-8) -> int:
    """Number of merged lines above ``intensity_floor`` times the largest."""
    require_finite("intensity floor", intensity_floor, "nonnegative")
    if not spectrum.merged:
        raise ValueError("count_peaks requires a merged spectrum")
    if spectrum.n_lines == 0:
        return 0
    magnitudes = np.abs(spectrum.intensities)
    return int(np.sum(magnitudes > intensity_floor * magnitudes.max()))


def broaden(spectrum: StickSpectrum, linewidth: float, grid: np.ndarray) -> np.ndarray:
    """Sample a sum of Lorentzians (half width ``linewidth``) on ``grid``.

    Each line contributes intensity / (1 + ((f - f0)/linewidth)^2), so
    its integral is pi * linewidth * intensity.  The grid is taken a
    block of points at a time, so that no temporary holds much more than
    2^16 values whatever the number of lines.
    """
    require_finite("linewidth", linewidth, "positive")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    out = np.zeros_like(grid)
    if spectrum.n_lines == 0:
        return out
    step = max(1, 2**16 // spectrum.n_lines)
    for start in range(0, grid.size, step):
        points = slice(start, start + step)
        # a detuning or its square that overflows gives the exact limit, 0
        with np.errstate(over="ignore"):
            detuning = (grid[points, np.newaxis] - spectrum.frequencies[np.newaxis, :]) / linewidth
            out[points] = (spectrum.intensities[np.newaxis, :] / (1.0 + detuning**2)).sum(axis=1)
    return out


def curve_to_csv(grid: np.ndarray, amplitudes: np.ndarray, path: str | Path) -> None:
    """Write a broadened curve as (frequency, amplitude) CSV."""
    write_csv(path, ["frequency", "amplitude"],
              [np.asarray(grid, dtype=float), np.asarray(amplitudes, dtype=float)])
