"""Quantum gears: angular-momentum transmission between coupled planar rotors.

The package splits along the physics: `model` owns the exact lattice
arithmetic of the gear pair, `relative` the banded relative-coordinate
Hamiltonian and its bands, `dynamics` kicks and time evolution, `ergotropy`
the work content of the driven gear, `classical` the classical limit, and
`oracle` an independent brute-force reference on the raw two-rotor lattice.
"""

from .errors import (
    ConfigError,
    ConvergenceFailure,
    GearsError,
    InternalInconsistency,
    NonPhysicalError,
    TruncationBreach,
    UnsupportedInertiaError,
)
from .model import (
    CollectiveMomentum,
    DerivedGeometry,
    GearConfig,
    GridSpec,
    PotentialSpec,
    angular_momentum_split,
    collective_to_momenta,
    derive_geometry,
    momenta_to_collective,
)
from .relative import (
    BandedHamiltonian,
    BandStructure,
    EigenSystem,
    RotorState,
    band_structure,
    build_hamiltonian,
    eigendecompose,
    eigensystem_for,
    ground_state,
)
from .dynamics import (
    KickProtocol,
    TimeSeries,
    TransmissionResult,
    apply_kick,
    eigen_occupations,
    evolve,
    evolved_states,
    long_time_average,
    revival_phase_defect,
    run_protocol,
    time_series,
    transmission_ratio,
)
from .ergotropy import (
    ErgotropyReport,
    MomentumDistribution,
    ergotropy,
    ergotropy_time_series,
    passive_state,
    reduced_gear2,
)
from .classical import (
    ClassicalState,
    ClassicalTransmissionResult,
    Trajectory,
    classical_kick,
    classical_transmission,
    mean_relative_momentum,
    simulate_relative,
)
from .oracle import (
    LatticeState,
    OracleSeries,
    build_full_hamiltonian,
    oracle_apply_kick,
    oracle_ground_state,
    oracle_run,
)

__version__ = "0.1.0"
