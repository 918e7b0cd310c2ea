"""Shared state types: generator spectra and probe states.

A ``Spectrum`` is the retained eigenvalue set of the integer shift
generator: ``nonneg`` keeps {0..cutoff}, ``symmetric`` keeps
{-cutoff..cutoff}.  A ``ProbeState`` is a real, normalized amplitude
vector over a spectrum (real amplitudes suffice for every optimum
considered here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "ProbeState"]

_KINDS = ("nonneg", "symmetric")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue set of the shift generator with truncation."""

    kind: str
    cutoff: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if int(self.cutoff) < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def dimension(self) -> int:
        return self.cutoff + 1 if self.kind == "nonneg" else 2 * self.cutoff + 1

    def values(self) -> np.ndarray:
        """Generator eigenvalues in array order."""
        if self.kind == "nonneg":
            return np.arange(self.cutoff + 1, dtype=float)
        return np.arange(-self.cutoff, self.cutoff + 1, dtype=float)

    def weights(self) -> np.ndarray:
        """Constraint weights: n for nonneg, |j| for symmetric."""
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
        offset = 0
        if spectrum.kind == "symmetric":
            offset = spectrum.cutoff - self.spectrum.cutoff
        amplitudes = np.zeros(spectrum.dimension)
        amplitudes[offset : offset + self.dimension] = self.amplitudes
        return ProbeState(spectrum=spectrum, amplitudes=amplitudes)

    def mean_weight(self) -> float:
        """<N> for nonneg spectra, <|J|> for symmetric ones."""
        return float(self.spectrum.weights() @ self.amplitudes**2)
