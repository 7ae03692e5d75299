"""Numerical construction and verification of lacunary canonical products
that solve second-order linear ODEs with regular-growth coefficients.

Subpackage map:

- ``product``        the lacunary product f, its schedules, zeros and derivatives,
                     all in plain ``mpc`` with guard bits for the large powers
- ``interpolation``  residue data, the rational series g, proximity-function quadrature
- ``coefficients``   the coefficient pair (A0, B0), the perturbation H, residual and contour checks
- ``growth``         max modulus, characteristic functions, order/indicator/witness scans
- ``checks`` / ``cli``  named verification procedures and the command-line front end
"""

# unused: kept loaded for the benchmark's traced run, which looks its four
# traced names up in sys.modules; import and module go once the benchmark
# drops those layers
from . import logdomain  # noqa: F401
from .errors import (
    CancellationError,
    ConfigError,
    DivergenceError,
    LacunaryError,
    NearPoleError,
    NearZeroError,
    NumericalError,
    PrecisionError,
    PrecisionInsufficient,
    QuadratureError,
    TailError,
    ZeroOnContourError,
)
from .coefficients import (
    CoefficientSystem,
    HProduct,
    build_H,
    cauchy_ratio,
    eval_A0,
    eval_AB,
    eval_B0,
    make_system,
    residual,
)
from .growth import (
    crg_witness,
    indicator_scan,
    log_max_modulus_bound,
    nevanlinna,
    order_scan,
    verify_thm2_asymptotics,
)
from .interpolation import (
    RationalInterpolant,
    eval_g,
    proximity_m,
    residues_from_f,
)
from .product import (
    DEFAULT_DPS,
    LacunaryConfig,
    config_from_blocks,
    config_from_dict,
    derivs_at_zero,
    eval_f,
    log_derivative,
    make_schedule,
    nearest_zero,
    zero_point,
    zeros,
)

__all__ = [
    "CancellationError",
    "ConfigError",
    "DivergenceError",
    "LacunaryError",
    "NearPoleError",
    "NearZeroError",
    "NumericalError",
    "PrecisionError",
    "PrecisionInsufficient",
    "QuadratureError",
    "TailError",
    "ZeroOnContourError",
    "DEFAULT_DPS",
    "LacunaryConfig",
    "config_from_blocks",
    "config_from_dict",
    "make_schedule",
    "eval_f",
    "log_derivative",
    "derivs_at_zero",
    "zeros",
    "zero_point",
    "nearest_zero",
    "RationalInterpolant",
    "residues_from_f",
    "eval_g",
    "proximity_m",
    "CoefficientSystem",
    "HProduct",
    "build_H",
    "make_system",
    "eval_A0",
    "eval_B0",
    "eval_AB",
    "residual",
    "cauchy_ratio",
    "log_max_modulus_bound",
    "nevanlinna",
    "order_scan",
    "crg_witness",
    "indicator_scan",
    "verify_thm2_asymptotics",
]

__version__ = "0.1.0"
