"""seqcred: empirical-Bayes credible balls for the inverse Gaussian sequence model.

The package is organized by pipeline stage:

* :mod:`seqcred.model`       -- noise model, signal generators, simulation
* :mod:`seqcred.oracle`      -- oracle and surrogate rates, EBR/PT classes,
                                noise-sequence conditions, minimax scales
* :mod:`seqcred.posterior`   -- mixture posterior over projection levels
* :mod:`seqcred.credible`    -- data-driven radii, default centers, balls
* :mod:`seqcred.diagnostics` -- Monte-Carlo condition estimates and bounds
* :mod:`seqcred.experiments` -- seeded experiment harness and reports
* :mod:`seqcred.cli`         -- command-line interface
"""

from .model import (
    ModelConfig,
    ObservedData,
    Signal,
    as_generator,
    generate_signal,
    make_model,
    simulate,
)
from .oracle import (
    CoversReport,
    EbrResult,
    Ellipsoid,
    Hyperrectangle,
    OracleResult,
    SigmaConditionReport,
    SigmaConstants,
    SurrogateOracleResult,
    covers_check,
    ebr_check,
    minimax_rate,
    oracle,
    pt_check,
    pt_to_ebr_tau,
    scale_class,
    sigma_constants,
    surrogate_oracle,
    verify_sigma_conditions,
)
from .posterior import (
    DdmParams,
    DdmPosterior,
    MixtureWeights,
    ParamDiagnostics,
    PosteriorDraws,
    crit,
    eb_index,
    make_posterior,
    mixture_weights,
    posterior_mean,
    sample_posterior,
    shrunk_full_bayes,
    validate_params,
)
from .credible import (
    CredibleBall,
    DefaultCenterResult,
    RadiusEstimate,
    default_center,
    make_confidence_ball,
    radius_at_level,
    radius_from_distances,
)
from .diagnostics import (
    BallVolume,
    ConditionEstimate,
    OversmoothingResult,
    PropositionBounds,
    Replication,
    ball_volume_bound,
    contraction_constant_reference,
    estimate_phi1,
    estimate_phi2,
    estimate_psi,
    oversmoothing_probability,
    proposition_bounds,
    remark1_transfer,
    replicate,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentReport,
    ExperimentSpec,
    default_spec,
    emit_plot_data,
    read_report,
    run_experiment,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelConfig",
    "ObservedData",
    "Signal",
    "as_generator",
    "generate_signal",
    "make_model",
    "simulate",
    # oracle
    "CoversReport",
    "EbrResult",
    "Ellipsoid",
    "Hyperrectangle",
    "OracleResult",
    "SigmaConditionReport",
    "SigmaConstants",
    "SurrogateOracleResult",
    "covers_check",
    "ebr_check",
    "minimax_rate",
    "oracle",
    "pt_check",
    "pt_to_ebr_tau",
    "scale_class",
    "sigma_constants",
    "surrogate_oracle",
    "verify_sigma_conditions",
    # posterior
    "DdmParams",
    "DdmPosterior",
    "MixtureWeights",
    "ParamDiagnostics",
    "PosteriorDraws",
    "crit",
    "eb_index",
    "make_posterior",
    "mixture_weights",
    "posterior_mean",
    "sample_posterior",
    "shrunk_full_bayes",
    "validate_params",
    # credible
    "CredibleBall",
    "DefaultCenterResult",
    "RadiusEstimate",
    "default_center",
    "make_confidence_ball",
    "radius_at_level",
    "radius_from_distances",
    # diagnostics
    "BallVolume",
    "ConditionEstimate",
    "OversmoothingResult",
    "PropositionBounds",
    "Replication",
    "ball_volume_bound",
    "contraction_constant_reference",
    "estimate_phi1",
    "estimate_phi2",
    "estimate_psi",
    "oversmoothing_probability",
    "proposition_bounds",
    "remark1_transfer",
    "replicate",
    # experiments
    "EXPERIMENT_KINDS",
    "ExperimentReport",
    "ExperimentSpec",
    "default_spec",
    "emit_plot_data",
    "read_report",
    "run_experiment",
    "write_report",
]
