"""convext: convex differentiable extension of 1-jets.

Given values and gradients on a finite set of points, decide whether they
extend to a globally convex, continuously differentiable function whose
gradient has a prescribed modulus of continuity; when they do, build the
extension explicitly (convex envelope of lifted tangent planes), optionally
capped at the sharp Lipschitz constant sup |G|, and verify the advertised
smoothness bounds empirically.
"""

from .modulus import (
    HolderModulus,
    LinearModulus,
    Modulus,
    NonCoerciveModulusError,
    ScaledModulus,
    TableModulus,
    modulus_from_json,
    modulus_to_json,
    parse_modulus_spec,
    validate_modulus,
)
from .jet import (
    FeasibilityReport,
    InfeasibleJetError,
    Jet,
    check_condition_C,
    check_condition_CW1,
    compute_A,
    feasibility_report,
    lip_omega_gradients,
    seminorm_A_extrinsic,
    seminorm_A_intrinsic,
    sup_norm_gradients,
)
from .envelope import (
    EnvelopeModel,
    Generator,
    build_envelope,
    minorant,
    write_samples_csv,
)
from .extension import (
    ConstantTooSmallError,
    ExtensionConfig,
    ExtensionModel,
    VerificationReport,
    build_extension,
    default_domain,
    verify_extension,
)
from .c1 import (
    ConstructedModulus,
    build_construction,
    c1_extend,
    delta1_value,
    delta_many,
)

__version__ = "0.1.0"
