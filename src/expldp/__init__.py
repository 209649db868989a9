"""Numerical toolkit for large-deviation rate functions of posterior
distributions and constrained maximum-likelihood estimators in (curved)
natural exponential families."""

from .errors import (
    DegeneratePosterior,
    ExpLdpError,
    MeanOutsideDomain,
    NoConvergence,
    NumericsError,
    OutsideDomain,
    QuadratureFailure,
    RateFormMismatch,
    RateUnbounded,
    TooLarge,
    UnknownScenario,
    UnsupportedModel,
)
from .families import (
    DomainSpec,
    GeneratingFamily,
    builtin,
    builtin_names,
    cumulant,
    discrete_family,
    hessian,
    log_likelihood,
    mean_map,
)
from .intervals import Interval
from .landau import landau_density, landau_dual_numeric_cumulant, landau_normalization
from .legendre import (
    ConstraintSet,
    LegendreResult,
    conjugate,
    conjugate_constrained,
    conjugate_grid_oracle,
)
from .models import (
    CurvedModel,
    ModelEvent,
    Prior,
    builtin_model,
    decay_rate_estimate,
    limiting_mle,
    model_names,
    posterior_mass,
    uniform_prior,
)
from .oracles import TrinomialSpec, curved_line_min_oracle, multinomial_mle_tail
from .rates import (
    DualPair,
    RateTable,
    contraction_rate,
    cramer_rate,
    dual_rate_gap,
    kl_divergence,
    poisson_landau_pair,
    posterior_rate,
    pythagorean_residual,
)
from .scenarios import scenario_names, scenario_run

__version__ = "0.1.0"
