"""Discrete-time coin-shift quantum walks on a ring.

Building blocks: position-dependent coin layouts and unitary evolution
(``lattice``), translationally invariant band theory with chiral symmetry
and the winding invariant (``bulk``), closed-form boundary modes and
finite-block energy conditions (``boundstates``), and the exact
diagonalization oracle plus root solvers (``spectral``).
"""

__version__ = "0.1.0"

from .lattice import (
    CoinProfile,
    WalkerState,
    apply_coin,
    apply_shift,
    build_profile,
    delta_state,
    evolve,
    position_distribution,
    ring_coordinates,
    step,
)
from .bulk import (
    GapClosedError,
    WindingResult,
    bloch_unitary,
    bloch_vector,
    chiral_axis,
    chiral_operator,
    dispersion,
    effective_hamiltonian,
    eigenspinor,
    eigenspinor_raw,
    frame_rotation,
    offdiagonal_h,
    particle_hole_check,
    winding_number,
)
from .boundstates import (
    BoundStateSolution,
    ExistenceVerdict,
    antisymmetric_condition_residual,
    antisymmetric_mode,
    decay_constant,
    infinite_wire_limit,
    single_boundary_condition_residual,
    single_boundary_existence,
    single_boundary_mode,
    splitting_decay_rate,
    wire_condition_residual,
)
from .spectral import (
    SpectralResult,
    SplittingFit,
    build_unitary,
    circle_distance,
    diagonalize,
    find_bound_states,
    fit_splitting_decay,
    mode_residual,
    oracle_compare,
    solve_wire_energy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
