"""Exact Bayesian inference for the Hurst parameter of fractional Gaussian
noise, built on Toeplitz quadratic forms, with verification tooling for the
supporting asymptotics (moment identities, determinant growth, Wiener-Hopf
factorisation, inverse-entry envelopes, posterior concentration)."""

from .symbols import (
    HurstParam, SymbolParam, AutocovSeq, sinai_density, autocov, autocov_seq,
    norming_constant, f_ratio_integral, f_ratio_derivatives,
)
from .toeplitz import (
    NotPositiveDefiniteError, ToeplitzSystem, build_system, quad_form,
    logdet_and_quad, whittle_quad_form, inverse_entry, InverseKernelSpec,
    inverse_kernel_prediction,
)
from .moments import (
    QuadFormInstance, MomentTable, trace_powers, theta_recursion,
    theta_isserlis_oracle, psi_direct, psi_composition_representation,
    moment_bound_constant, moment_table,
)
from .fgn import (
    FgnPath, RescaledSample, EmbeddingError, replicate_rng,
    embedding_eigenvalues, sample_fgn, sample_fgn_cholesky, rescale,
    write_path_csv, read_path_csv,
)
from .factorization import (
    FourierCoeffs, w_hat, w_hat_seq, hilbert_transform, analytic_sqrt,
    smooth_part, split_symbol, whitening_coeffs, factorization_identity_error,
    r_coefficient_decay, q_coefficient_check, w_asymptotics,
)
from .posterior import (
    PosteriorGrid, AsymptoticSummary, log_posterior, posterior_grid,
    map_estimate, posterior_moments, credible_interval, kappa_value,
    kappa_prime, kappa_second, solve_alpha_n, normal_approx_cdf,
)
from .harness import (
    THRESHOLDS, ExperimentRecord, ExperimentReport, run_slln,
    run_determinant, run_concentration, run_factorization_suite,
    run_inverse_entries, run_moment_suite, szego_constant,
    write_report_json, read_report_json, write_report_csv,
)

__version__ = "0.1.0"
