"""Semiparametric bivariate copulas C(u,v) = uv + theta*phi(u)*phi(v).

The package splits along the objects of the theory: ``generator`` holds
phi, the builtin catalog, and validity checks; ``copula`` evaluates the
family and samples from it; ``measures`` computes sigma/tau/rho by closed
form and by definitional quadrature; ``properties`` classifies symmetry,
positive dependence, and orderings with phi-condition scans plus
definition-level oracles; ``exprlang`` parses user-supplied phi
expressions; ``numerics`` carries the shared quadrature/bisection/RNG
kernels; ``cli`` is the command-line frontend.
"""

from .copula import Copula, KinkPointError, SamplePairs, ThetaRangeError
from .exprlang import (
    EvaluationDomainError,
    Expression,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from .generator import (
    CheckResult,
    Generator,
    GeneratorValidationError,
    ValidationReport,
    builtin,
    from_expression,
    validate,
)
from .measures import (
    AssociationMeasures,
    closed_form_measures,
    empirical_rho,
    empirical_tau,
    quadrature_measures,
    tau_phi5,
)
from .numerics import (
    BracketError,
    ConvergenceError,
    QuadratureError,
    RandomStream,
    bisect,
    integrate_1d,
)
from .properties import (
    PROPERTY_KEYS,
    PropertyReport,
    Verdict,
    dependence_profile,
    oracle_pfd,
    oracle_pqd,
    oracle_tp2,
    pfd_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # generator
    "Generator",
    "GeneratorValidationError",
    "ValidationReport",
    "CheckResult",
    "builtin",
    "from_expression",
    "validate",
    # copula
    "Copula",
    "SamplePairs",
    "ThetaRangeError",
    "KinkPointError",
    # measures
    "AssociationMeasures",
    "closed_form_measures",
    "quadrature_measures",
    "empirical_tau",
    "empirical_rho",
    "tau_phi5",
    # properties
    "Verdict",
    "PropertyReport",
    "PROPERTY_KEYS",
    "dependence_profile",
    "oracle_pqd",
    "oracle_tp2",
    "oracle_pfd",
    "pfd_closed_form",
    # expression language
    "Expression",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "EvaluationDomainError",
    "parse",
    "evaluate",
    "differentiate",
    "to_source",
    # numerics
    "QuadratureError",
    "BracketError",
    "ConvergenceError",
    "RandomStream",
    "integrate_1d",
    "bisect",
]
