"""Block construction: modulation, cyclic prefix, unitary transform pair."""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass
class BlockFrame:
    """Length-N symbol block, in time or frequency domain, with CP state.

    With a prefix attached the stored vector is the prefix followed by the
    body, so its length is ``block_size + cp_len``. A stack of blocks keeps
    them along the last axis.
    """

    symbols: np.ndarray
    domain: str = "time"
    has_cp: bool = False
    cp_len: int = 0

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=complex)
        if self.domain not in ("time", "frequency"):
            raise ValueError(f"unknown domain: {self.domain!r}")
        if self.has_cp and not 0 <= self.cp_len <= self.block_size:
            raise ValueError("prefix longer than the block body")

    @property
    def block_size(self) -> int:
        return self.symbols.shape[-1] - (self.cp_len if self.has_cp else 0)


def modulate(bits: np.ndarray, scheme: ModulationScheme) -> BlockFrame:
    """Map a bit vector, or a stack of them along the last axis, onto
    time-domain symbol blocks."""
    bits = np.asarray(bits, dtype=int)
    if bits.shape[-1] % scheme.bits_per_symbol != 0:
        raise ValueError("bit count is not a multiple of bits per symbol")
    groups = bits.reshape(*bits.shape[:-1], -1, scheme.bits_per_symbol)
    weights = 1 << np.arange(scheme.bits_per_symbol - 1, -1, -1)
    labels = groups @ weights
    return BlockFrame(scheme.points[labels])


def demodulate(frame: BlockFrame, scheme: ModulationScheme) -> np.ndarray:
    """Minimum-distance symbol decisions, inverted to bits; a stack of
    blocks gives one bit vector per block.

    Equidistant points resolve to the lowest label (argmin tie-break).
    """
    if frame.domain != "time":
        raise ValueError("demodulation expects a time-domain frame")
    if frame.has_cp:
        raise ValueError("remove the prefix before demodulating")
    dist = np.abs(frame.symbols[..., None] - scheme.points)
    labels = np.argmin(dist, axis=-1)
    shifts = np.arange(scheme.bits_per_symbol - 1, -1, -1)
    return ((labels[..., None] >> shifts) & 1).reshape(*labels.shape[:-1], -1)


def append_cp(frame: BlockFrame, cp_len: int) -> BlockFrame:
    """Copy the last ``cp_len`` body symbols to the front of the block."""
    if frame.has_cp:
        raise ValueError("frame already carries a prefix")
    if not 0 <= cp_len <= frame.block_size:
        raise ValueError("cp_len must be between 0 and the block size")
    if cp_len == 0:
        return replace(frame, symbols=frame.symbols.copy(), has_cp=True, cp_len=0)
    symbols = np.concatenate([frame.symbols[-cp_len:], frame.symbols])
    return BlockFrame(symbols, frame.domain, has_cp=True, cp_len=cp_len)


def remove_cp(frame: BlockFrame) -> BlockFrame:
    """Discard the prefix samples from the front of the block."""
    if not frame.has_cp:
        raise ValueError("frame carries no prefix")
    return BlockFrame(frame.symbols[frame.cp_len:], frame.domain)


def unitary_fft(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(x, norm="ortho")


def unitary_ifft(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft(x, norm="ortho")


def fft(frame: BlockFrame) -> BlockFrame:
    """Unitary DFT of a time-domain block (prefix must be gone)."""
    if frame.has_cp:
        raise ValueError("remove the prefix before transforming")
    if frame.domain != "time":
        raise ValueError("frame is already in the frequency domain")
    return BlockFrame(unitary_fft(frame.symbols), "frequency")


def ifft(frame: BlockFrame) -> BlockFrame:
    """Unitary inverse DFT of a frequency-domain block."""
    if frame.has_cp:
        raise ValueError("remove the prefix before transforming")
    if frame.domain != "frequency":
        raise ValueError("frame is already in the time domain")
    return BlockFrame(unitary_ifft(frame.symbols), "time")
