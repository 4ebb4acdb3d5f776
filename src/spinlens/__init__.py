"""Unitary focusing of spin excitations on discrete lattices.

Builds single-excitation (and few-excitation) spin models on 1D/2D/3D
lattices, applies focusing potentials and phase imprints, evolves them
exactly, and quantifies focal widths, times and robustness against
fabrication disorder.
"""

from .lattice import (
    HamiltonianTerms,
    NearestNeighbor,
    PowerLaw,
    SiteTable,
    build_couplings,
    build_lattice,
    displace_sites,
    punch_holes,
)
from .lens import (
    ContinuumPrediction,
    Multifocal,
    OptimizeResult,
    ThickPolynomial,
    ThinPulse,
    continuum_thick,
    continuum_thin,
    corrected_focal_time,
    optimize_lens,
    potential_profile,
    thin_phase_profile,
    thresholds,
)
from .manybody import (
    FockBasis,
    ManyBodySector,
    ManyBodyState,
    blockade_radius,
    build_mb_hamiltonian,
    density_profile,
    enumerate_basis,
    evolve_mb,
    pair_distance_distribution,
    symmetric_initial_state,
)
from .propagator import real_window
from .rydberg import (
    ChannelC6,
    DressingParams,
    dressed_couplings,
    effective_potentials,
    exchange_peak,
    vdw_iso_aniso,
)
from .wavepacket import (
    SpinWaveState,
    evolve,
    excitation_probability,
    focus_probability,
    gaussian_packet,
    gaussian_width,
    gaussian_widths,
    phase_imprint,
    rms_width,
    wigner_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelC6",
    "ContinuumPrediction",
    "DressingParams",
    "FockBasis",
    "HamiltonianTerms",
    "ManyBodySector",
    "ManyBodyState",
    "Multifocal",
    "NearestNeighbor",
    "OptimizeResult",
    "PowerLaw",
    "SiteTable",
    "SpinWaveState",
    "ThickPolynomial",
    "ThinPulse",
    "blockade_radius",
    "build_couplings",
    "build_lattice",
    "build_mb_hamiltonian",
    "continuum_thick",
    "continuum_thin",
    "corrected_focal_time",
    "density_profile",
    "displace_sites",
    "dressed_couplings",
    "effective_potentials",
    "enumerate_basis",
    "evolve",
    "evolve_mb",
    "exchange_peak",
    "excitation_probability",
    "focus_probability",
    "gaussian_packet",
    "gaussian_width",
    "gaussian_widths",
    "optimize_lens",
    "pair_distance_distribution",
    "phase_imprint",
    "potential_profile",
    "punch_holes",
    "real_window",
    "rms_width",
    "symmetric_initial_state",
    "thin_phase_profile",
    "thresholds",
    "vdw_iso_aniso",
    "wigner_lattice",
    "__version__",
]
