"""Two-qubit entanglement delivered through an unreliable pairing channel.

The package models a source shipping identical pure pairs
a|00> + sqrt(1-a^2)|11> to distant customer pairs, each delivery arriving
intact only with probability s.  It provides the resulting mixing map, the
entanglement it leaves behind (concurrence, entanglement of formation,
survival thresholds, optimal preparations), nonlocality diagnostics (CHSH
violation boundary, a local-hidden-variable witness region) and a seeded
Monte Carlo simulator validating the map's predictions.
"""

__version__ = "0.1.0"

from .entanglement import (
    concurrence_general,
    concurrence_raw,
    concurrence_xstate,
    ef_max_asymptotic,
    eisert_lower_bound,
    entanglement_of_formation,
    optimize_prep,
    survival_threshold,
    survival_threshold_bisect,
    wootters_spectrum,
)
from .mixing import apply_map, fidelity, mapped_state
from .nonlocality import (
    chsh_boundary,
    chsh_boundary_bisect,
    chsh_value,
    correlation_matrix,
    horodecki_m,
    lhvt_decompose,
    lhvt_region,
    region_scan,
)
from .simulate import (
    DeliveryModel,
    estimate_concurrence,
    joint_probabilities,
    permutation_effective_s,
    simulate_pair_state,
)
from .states import (
    PrepParams,
    StateValidationError,
    barrett_state,
    bell_state,
    pauli,
    psi_a,
    validate,
)
