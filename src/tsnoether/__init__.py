"""Delta calculus of variations on finite time scales, with numerical
checks of the gauge-invariance identities it induces."""

from .timescale import (
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    explicit_scale,
    h_uniform,
    mixed,
    parse_scale_spec,
    q_geometric,
    read_csv,
    real_approx,
    shift,
    write_csv,
)
from .report import ResidualReport
from .variational import (
    BoundaryData,
    ConvergenceError,
    Lagrangian,
    catalog,
    el_expressions,
    el_residual,
    eval_functional,
    first_variation,
    second_el_expression,
    solve_extremal,
)
from .noether import (
    FundamentalLemmaReport,
    GaugeFamily,
    check_invariance,
    fundamental_lemma_oracle,
    identity_lhs_h_calculus,
    identity_lhs_q_calculus,
    necessary_condition_residual,
    noether_identity,
    noether_identity_time,
    random_gauge_params,
    second_el_via_reparametrization,
    transform,
    vanishing_coefficients,
)
from .multigrid import (
    FieldD,
    GaugeFamilyD,
    GridD,
    LagrangianD,
    catalog2d,
    check_invariance_d,
    double_fundamental_oracle,
    el_expressions_d,
    functional_d,
    gauge_field,
    gauge_field_adjoint,
    gauge_pairing,
    greens_residual,
    multi_integral,
    noether_identity_d,
    partial_delta,
    random_polynomial_field,
    shift_all_except,
    shift_axis,
    transform_d,
)
from .em import (
    default_lattice,
    em_functional,
    em_gauge_family,
    em_lagrangian,
    em_lorentz_check,
    em_wave_form,
    em_wave_reduction_residual,
    lorentz_field,
    random_em_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
