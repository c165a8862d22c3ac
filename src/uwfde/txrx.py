"""Block construction: modulation, cyclic prefix, unitary transform pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ModulationScheme:
    """Unit-average-power constellation indexed by its Gray bit label."""

    name: str
    order: int
    points: np.ndarray
    bits_per_symbol: int

    @classmethod
    def bpsk(cls) -> "ModulationScheme":
        # bit 0 -> +1, bit 1 -> -1
        return cls("bpsk", 2, np.array([1.0 + 0j, -1.0 + 0j]), 1)

    @classmethod
    def qpsk(cls) -> "ModulationScheme":
        # label b0b1 -> ((1-2*b0) + 1j*(1-2*b1))/sqrt(2); 00 -> (1+1j)/sqrt(2)
        points = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / _SQRT2
        return cls("qpsk", 4, points, 2)

    @classmethod
    def from_name(cls, name: str) -> "ModulationScheme":
        try:
            return {"bpsk": cls.bpsk, "qpsk": cls.qpsk}[name.lower()]()
        except KeyError:
            raise ValueError(f"unknown modulation scheme: {name!r}") from None


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Map a bit vector, or a stack of them along the last axis, onto
    time-domain symbol blocks."""
    bits = np.asarray(bits, dtype=int)
    if bits.shape[-1] % scheme.bits_per_symbol != 0:
        raise ValueError("bit count is not a multiple of bits per symbol")
    groups = bits.reshape(*bits.shape[:-1], -1, scheme.bits_per_symbol)
    weights = 1 << np.arange(scheme.bits_per_symbol - 1, -1, -1)
    labels = groups @ weights
    return scheme.points[labels]


def demodulate(symbols: np.ndarray, scheme: ModulationScheme) -> np.ndarray:
    """Minimum-distance decisions on time-domain symbols, inverted to bits;
    a stack of blocks gives one bit vector per block. For the Gray-labelled
    BPSK and QPSK maps that is a sign test: bit one is ``Re s < 0`` and the
    second QPSK bit ``Im s < 0``. A zero part (either sign) gives bit 0, the
    lowest of the equidistant labels."""
    symbols = np.asarray(symbols)
    if scheme.bits_per_symbol == 1:
        return (symbols.real < 0).astype(int)
    bits = np.stack([symbols.real < 0, symbols.imag < 0], axis=-1)
    return bits.reshape(*symbols.shape[:-1], -1).astype(int)


def append_cp(x: np.ndarray, cp_len: int) -> np.ndarray:
    """Copy the last ``cp_len`` symbols of a block, or of each block of a
    stack along the last axis, to its front."""
    x = np.asarray(x, dtype=complex)
    if not 0 <= cp_len <= x.shape[-1]:
        raise ValueError("cp_len must be between 0 and the block size")
    return np.concatenate([x[..., x.shape[-1] - cp_len:], x], axis=-1)


def unitary_fft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, norm="ortho")


def unitary_ifft(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, norm="ortho")
