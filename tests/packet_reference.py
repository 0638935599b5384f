"""Per-packet references for the packet sets of `wavepackets.decompose`.

A packet is read as (decomposition, row): row i of every array of
`dec.packets`, through the support table of its frequency node, which
the packets' window pair holds.
"""

import numpy as np

from katolab.core import Field, idft


def packet_node(dec, i) -> tuple:
    """(l, v, energy) of packet i, its node coordinates as tuples of floats."""
    ps = dec.packets
    return (tuple(ps.pair.lattice[ps.l[i]].tolist()),
            tuple(ps.pair.v_axis[ps.v[i]].tolist()), float(ps.energy[i]))


def packet_spectrum(dec, i) -> np.ndarray:
    """Packet i's frequency samples on its whole grid."""
    ps, pair = dec.packets, dec.packets.pair
    node = tuple(ps.v[i])
    mask = pair.mask[node]
    out = np.zeros(pair.grid.shape, dtype=np.complex128)
    out.reshape(-1)[pair.index[node][mask]] = ps.block[i][mask]
    return out


def packet_values(dec, i) -> np.ndarray:
    """Packet i's spatial samples, from one inverse transform of its spectrum."""
    return idft(Field(dec.packets.pair.grid, packet_spectrum(dec, i))).values
