"""Training-data reconstruction attacks against Bayesian posteriors and
trained models, with the model-induced MMD kernels that characterise which
training-data features are recoverable."""

from .attack import (
    AdamState,
    AttackConfig,
    AttackTrace,
    adam_update,
    initialize_pseudo,
    objective_gradients,
    objective_value,
    run_attack,
)
from .divergence import (
    BayesKernel,
    DivergenceEstimate,
    NonBayesKernel,
    PosteriorDraws,
    fd_direct,
    fd_ibp_objective,
    loss_gradient_gap,
    mmd_squared,
    sfd_objective,
)
from .measures import (
    Layout,
    ReconStats,
    WeightedEmpiricalMeasure,
    build_measure,
    recon_statistics,
    stat_errors,
)
from .models import (
    BayesLinReg,
    DomainError,
    GaussianMeanLocation,
    IdentityFeatures,
    KidScoreModel,
    LogisticLoss,
    LossModel,
    LikelihoodModel,
    PolynomialFeatures,
    SquaredErrorLoss,
    finite_difference_audit,
)
from .samplers import (
    SamplerConfig,
    exact_gaussian_mean_draws,
    load_draws,
    rwm_draws,
    save_draws,
)

__all__ = [name for name in dir() if not name.startswith("_")]
