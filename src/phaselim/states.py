"""Shared state types: generator spectra and probe states.

A ``Spectrum`` is the retained eigenvalue set of the integer shift
generator: ``nonneg`` keeps {0..cutoff}, ``symmetric`` keeps
{-cutoff..cutoff}.  ``Spectrum.weights()`` is the one home of the
constraint weight W: every solve, certificate, seed and mean reads it.
A ``ProbeState`` is a real, normalized amplitude vector over a spectrum
(real amplitudes suffice for every optimum considered here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "ProbeState"]

_SIDES = {"nonneg": 1, "symmetric": 2}  # sides of 0 each kind keeps


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue set of the shift generator with truncation."""

    kind: str
    cutoff: int

    def __post_init__(self) -> None:
        if self.kind not in _SIDES:
            raise ValueError(f"kind must be one of {tuple(_SIDES)}, got {self.kind!r}")
        try:
            cutoff = int(self.cutoff)
        except (TypeError, ValueError, OverflowError):  # None, NaN, inf
            cutoff = 0
        if cutoff != self.cutoff or cutoff < 1:
            raise ValueError(f"cutoff must be an integer >= 1, got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", cutoff)

    @property
    def sides(self) -> int:
        """Sides of 0 kept, 1 (nonneg) or 2 (symmetric): the one home of the
        kind's factor 2 and of the first value -(sides - 1) cutoff."""
        return _SIDES[self.kind]

    @property
    def dimension(self) -> int:
        return self.sides * self.cutoff + 1

    def values(self) -> np.ndarray:
        """Generator eigenvalues in array order."""
        return np.arange((1 - self.sides) * self.cutoff, self.cutoff + 1, dtype=float)

    def weights(self) -> np.ndarray:
        """Constraint weights W: n for nonneg, |j| for symmetric (module docstring)."""
        return np.abs(self.values())

    def with_cutoff(self, cutoff: int) -> "Spectrum":
        return Spectrum(kind=self.kind, cutoff=cutoff)


@dataclass(frozen=True)
class ProbeState:
    """Real amplitude vector psi over a spectrum, unit normalized."""

    spectrum: Spectrum
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        psi = np.asarray(self.amplitudes, dtype=float)
        if psi.ndim != 1 or psi.size != self.spectrum.dimension:
            raise ValueError(
                f"amplitudes shape {psi.shape} does not match spectrum "
                f"dimension {self.spectrum.dimension}"
            )
        norm = np.linalg.norm(psi)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-6:
            raise ValueError(f"amplitudes are not normalized (norm = {norm})")
        object.__setattr__(self, "amplitudes", psi / norm)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def with_cutoff(self, cutoff: int) -> "ProbeState":
        """The same state on a spectrum with a cutoff at least as large.

        The new levels get zero amplitude: at the top for nonneg spectra, at
        both ends for symmetric ones.
        """
        spectrum = self.spectrum.with_cutoff(cutoff)
        if spectrum.cutoff < self.spectrum.cutoff:
            raise ValueError(
                f"cutoff {cutoff} is below the state's {self.spectrum.cutoff}"
            )
        offset = (spectrum.sides - 1) * (spectrum.cutoff - self.spectrum.cutoff)
        amplitudes = np.zeros(spectrum.dimension)
        amplitudes[offset : offset + self.dimension] = self.amplitudes
        return ProbeState(spectrum=spectrum, amplitudes=amplitudes)

    def mean_weight(self) -> float:
        """<N> for nonneg spectra, <|J|> for symmetric ones."""
        return float(self.spectrum.weights() @ self.amplitudes**2)
