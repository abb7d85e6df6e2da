"""ppdecomp: joint/individual subspace decomposition of multi-view data.

The spectrum of the product of the two views' estimated projection matrices
(equivalently, the cosines of the principal angles between the estimated
signal subspaces) clusters into joint, non-orthogonally-aligned individual,
and noise groups. The package selects marginal ranks by optimal hard
thresholding, bounds the joint cluster with a rotational bootstrap, bounds
the noise cluster with the analytical spectral edge of a random projection
product, and returns orthonormal bases for the joint and individual
subspaces, with diagnostics and a simulation benchmark harness.
"""

from .bootstrap import (BootstrapConfig, EpsilonEstimate, estimate_epsilon1,
                        rotate_align)
from .decomposition import (DecompositionResult, ProductSpectrum, decompose,
                            decompose_multiview, individual_basis, joint_basis,
                            joint_rank, product_spectrum)
from .diagnostics import build_report, export_json, render_svg, report_from_parts
from .exceptions import (BootstrapInfeasible, DimensionMismatch, InvalidInput,
                         ParseError)
from .linalg import (haar_basis, orthonormalize, principal_spectrum,
                     spectral_norm, subspace_distance)
from .matrixio import read_matrix_csv, write_matrix_csv
from .noise import (NoiseSpectrumLaw, continuous_mass, density_sv_scale,
                    noise_cdf, noise_density, noise_law, sample_noise_spectrum,
                    singular_value_threshold)
from .oracle import (Theorem2Report, TruthOracle, epsilon_pair,
                     theorem2_bounds, truth_oracle)
from .ranksel import (RankSelection, Truncation, gd_coefficient,
                      marchenko_pastur_median, mp_median_sv, select_rank,
                      truncate)
from .simulate import (BenchmarkRow, ScoreTriple, SimConfig, SimTruth,
                       decomposition_f_score, generate, misspecify_ranks,
                       run_benchmark, score)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow", "BootstrapConfig", "BootstrapInfeasible",
    "DecompositionResult", "DimensionMismatch",
    "EpsilonEstimate", "InvalidInput", "NoiseSpectrumLaw", "ParseError",
    "ProductSpectrum", "RankSelection", "ScoreTriple", "SimConfig", "SimTruth",
    "Theorem2Report", "Truncation", "TruthOracle", "build_report",
    "continuous_mass", "decompose", "decompose_multiview",
    "decomposition_f_score", "density_sv_scale", "epsilon_pair",
    "estimate_epsilon1", "export_json",
    "gd_coefficient", "generate", "haar_basis", "individual_basis",
    "joint_basis", "joint_rank", "marchenko_pastur_median",
    "misspecify_ranks", "mp_median_sv", "noise_cdf", "noise_density",
    "noise_law", "orthonormalize", "principal_spectrum", "product_spectrum",
    "read_matrix_csv", "render_svg", "report_from_parts",
    "rotate_align", "run_benchmark", "sample_noise_spectrum", "score",
    "select_rank", "singular_value_threshold", "spectral_norm",
    "subspace_distance", "theorem2_bounds", "truncate", "truth_oracle",
    "write_matrix_csv",
]
