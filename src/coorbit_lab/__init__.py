"""Numerical laboratory for coherent-state transforms and coorbit norms on
nilpotent Lie groups.

Closed-form Gaussian algebra feeds five concrete group representations; on
top of that sit weighted norm computations, orbit scans, and frame
diagnostics, each backed by an independent grid oracle.
"""

from .gaussian import (
    Gaussian,
    chirp,
    chirp_mp_norm,
    chirp_stft_modulus,
    delta_matrix,
    inner_product,
    l2_norm,
    modulate,
    pullback_affine,
    stft_closed,
    tensor,
    translate,
    unit_gaussian,
)
from .groups import GroupSpec, group_spec, multiply, inverse, commutator, section, project
from .representations import (
    RepSpec,
    apply_rep,
    default_window,
    formal_dimension,
    known_formal_dimension,
    rep_coefficient,
)
from .coorbit import (
    NormSpec,
    NormTask,
    WeightSpec,
    coorbit_norm,
    modulation_norm,
    moderate_check,
    orbit_scan,
    power_weight,
    weight_pullback_g616,
)
from .numerics import GridSpec, dft_stft, sample
from .frames import (
    QuasiLattice,
    beurling_density,
    dual_window_estimate,
    frame_bounds_estimate,
    quasilattice_points,
    tiling_check,
)

__version__ = "0.1.0"
