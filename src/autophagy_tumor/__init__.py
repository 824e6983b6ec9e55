"""1D two-population (normal/autophagic) tumor growth: porous-medium
transport, nutrient coupling, closed-form references, and scenario tooling."""

from .analytic import (
    AnalyticSetup,
    RadiusTrajectory,
    analytic_nutrient,
    analytic_pressure,
    assumption_violation_radius,
    boundary_speed,
    exp_growth_lower_bound,
    integrate_radius,
)
from .diagnostics import (
    SERIES_CHANNELS,
    SupportInfo,
    TimeSeries,
    l2n_condition_and_rate,
    l2n_deviation,
    nutrient_bound_check,
    sup_deviation,
    support_components,
    support_info,
    support_radius,
    total_population,
    uniform_bound_at,
)
from .grid import (
    Grid1D,
    density_from_pressure,
    limited_slope,
    numerical_flux,
    pressure_from_density,
)
from .kinetics import (
    NEUMANN,
    QUASISTATIC,
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    Logistic,
    ModelParameters,
    OdeState,
    PeriodicFlux,
    Proportional,
    RationalPairTransitions,
    ReactionEquilibrium,
    equilibrium_roots,
    eval_flux,
    eval_growth,
    eval_transitions,
    integrate_ode_model,
    mu_ode_closed_form,
    reaction_rate_f,
    wellmixed_pointwise_bound,
)
from .scenarios import (
    PRESETS,
    AnalyticPressureInit,
    CheckpointInit,
    ConstantComposition,
    CustomCoshInit,
    ProfileComposition,
    ScenarioConfig,
    TableComposition,
    build_initial_state,
    config_from_dict,
    config_to_dict,
    load_config,
    run_scenario,
)
from .solver import (
    FieldState,
    RunLog,
    RunResult,
    SolverConfig,
    SolverError,
    enlarge_domain_if_needed,
    read_checkpoint,
    run,
    step,
    write_checkpoint,
)

__version__ = "0.1.0"
