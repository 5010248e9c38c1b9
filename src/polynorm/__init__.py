"""polynorm: norms, exact differentiation operators, and inequality
verification for trigonometric and algebraic polynomials on the unit circle."""

from .errors import (
    BandwidthExceeded,
    InvalidParam,
    NearCircleRoot,
    NotRealValued,
    OnUnitCircle,
    OutOfRange,
    ParseError,
    PolynormError,
    RootInForbiddenRegion,
    ZeroPolynomial,
)
from .poly import (
    AlgebraicPoly,
    ExponentialSum,
    RootSet,
    TrigPoly,
    from_roots,
    generate,
    load_poly_file,
    poly_from_json,
    poly_to_json,
    roots,
)
from .norms import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    besov_111_seminorm,
    besov_inf1_seminorm,
    circle_max,
    disk_mean,
    lp_norm,
    mahler_jensen,
    mahler_quadrature,
    norm_value,
    sup_norm,
    sup_norm_argmax,
    wiener_norm,
)
from .measures import (
    DiscreteMeasure,
    boas_derivative,
    boas_measure,
    convolve,
    euler_partial_sums,
    riesz_measure,
    riesz_weight_identity,
    riesz_weight_identity_alt,
)
from .kernels import (
    bergman_profile,
    besov_111_bound_constant,
    besov_111_terms,
    besov_inf1_bound_constant,
    deriv_via_kernel,
    dirichlet,
    second_deriv_via_kernel,
    trig_deriv_via_kernel,
    wiener_bound_constant,
)

__version__ = "0.1.0"
