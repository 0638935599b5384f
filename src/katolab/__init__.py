"""Numerical laboratory for local and global smoothing-estimate scaling of
dispersive propagators: spectral evolution, wave packets and tubes, mixed
norms, operator-norm scans, and sparse-ball geometry."""

from .core import (Annulus, Ball, Field, GaussianRecipe, Grid, KnappRecipe,
                   RandomBandlimited, Sector, SpacetimeField, dft, idft,
                   make_field, read_field, write_field)
from .norms import MixedNormSpec, mixed_norm
from .opnorm import (ScalingFit, SmoothingOperatorSpec, fit_exponent,
                     lower_bound_mixed, operator_norm_l2, predicted_exponent,
                     transfer_exponent)
from .propagator import propagate, sector_bump
from .sparse import (CubeSet, SparseFamily, SurfacePatch, columns_by_height,
                     decoupling_check, is_sparse, sparse_decompose,
                     surface_fourier, surface_patch)
from .symbols import SymbolSpec, phase, schrodinger
from .wavepackets import (Decomposition, PacketSet, PartitionPair, Tube,
                          almost_orthogonality, build_partitions, decompose,
                          max_overlap, packet_kernel, reconstruct,
                          tube_meets_cube)

__version__ = "0.1.0"
