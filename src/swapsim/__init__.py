"""Exact simulator for non-post-selection entanglement swapping schemes
built from SPDC sources, beam splitters and threshold detectors, in
truncated Fock space."""

from .detection import (
    CLICK,
    SILENT,
    ConditionalOutcome,
    ThresholdDetector,
    measure,
)
from .elements import (
    ModeUnitary,
    apply_mode_unitary,
    balanced_bs,
    pbs,
    polarization_rotation,
    unbalanced_bs,
)
from .fock import (
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    bell_state,
    fidelity,
    inner_product,
    tensor_product,
)
from .protocols import (
    ProtocolReport,
    analyze_polarization_postselection,
    analyze_vacuum_one_photon,
    bell_decomposition_check,
    run_phase_verification,
    run_scheme_a,
    run_scheme_b,
    run_theta_swapping,
    sample_run,
)
from .sources import (
    double_pass_source,
    polarization_double_pass,
    spdc_pair,
    theta_product,
    vacuum_one_photon_postbs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
