"""Per-packet references for the stored packets of `wavepackets.decompose`."""

import numpy as np

from katolab.core import Field, idft


def packet_spectrum(p) -> np.ndarray:
    """The packet's frequency samples on its whole grid."""
    out = np.zeros(p.grid.shape, dtype=np.complex128)
    out.reshape(-1)[p.index] = p.block
    return out


def packet_values(p) -> np.ndarray:
    """The packet's spatial samples, from one inverse transform of its spectrum."""
    return idft(Field(p.grid, packet_spectrum(p))).values
