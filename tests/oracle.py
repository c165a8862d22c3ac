"""Dense-matrix oracles for the per-bin channel algebra; test helpers only."""

import numpy as np


def circulant_from_taps(taps: np.ndarray, block_size: int) -> np.ndarray:
    """Column-circulant matrix whose first column is the zero-padded taps."""
    taps = np.asarray(taps)
    if len(taps) > block_size:
        raise ValueError("more taps than the block size")
    col = np.zeros(block_size, dtype=complex)
    col[: len(taps)] = taps
    idx = (np.arange(block_size)[:, None] - np.arange(block_size)[None, :]) % block_size
    return col[idx]
