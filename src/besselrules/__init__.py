"""Sum rules for products of Bessel functions of the first kind.

Exact coefficient polynomials, closed-form and brute-force sum-rule
evaluation, and the frequency-modulated oscillator absorption application,
with a file-emitting CLI front end.
"""

from besselrules.bessel_core import (
    BesselRow,
    ConvergenceError,
    OracleError,
    bessel_j_complex_order,
    bessel_j_int,
    bessel_j_row,
    ln_gamma_complex,
    truncation_bound,
)
from besselrules.coefficients import (
    CoeffTable,
    DyadicPoly,
    build_coeff_table,
    coeff_faa_di_bruno,
    enumerate_derivative_partitions,
)
from besselrules.sum_rules import (
    AccuracyError,
    GeneralModulation,
    SidebandSpectrum,
    SumRuleReport,
    addition_formula_sides,
    alternating_sum_sides,
    b_ks_brute,
    b_ks_closed,
    general_modulation_rules,
    general_sidebands,
    jbar,
    jbar_sum_rule_sides,
    jcs,
    jcs_sum_rule_sides,
    recursion_residual,
)
from besselrules.modulation_spectroscopy import (
    HarmonicDecomposition,
    OscillatorParams,
    PerturbativeDomainWarning,
    RegimeError,
    a_s_direct,
    a_s_eta_coefficients,
    a_s_geometric,
    a_s_newberger,
    a_s_series,
    exact_truncation_order,
    modulated_power_exact,
    modulated_power_exact_sweep,
    modulated_power_perturbative,
    perturbative_validity,
    time_domain_oracle,
)

__version__ = "0.1.0"
