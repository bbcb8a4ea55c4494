"""Random max-stable laws and their verification toolkit.

Compose a Laplace-transform count family phi with a max-stable law H to
get the count-mixed d.f. F(x) = phi(-log H(x)), sample random maxima and
extremal processes exactly, and check the defining identities with seeded,
reproducible experiments.
"""

from .errors import ConfigurationError, DomainError, RandmaxError
from .evd_core import (
    AttractionTriple,
    Frechet,
    Gumbel,
    MaxStableLaw,
    Pareto,
    PoissonMax,
    ReverseWeibull,
    StdUniform,
    UnitExponential,
    doa_gap,
    sample_base,
    standard_points,
    standard_triple,
    univariate,
)
from .extremal_proc import (
    ExtremalPath,
    PathColumns,
    default_floor,
    marginal_cdf,
    sample_Y_at_time,
    simulate_path,
    simulate_path_columns,
    simulate_paths,
)
from .lt_families import (
    CountScheme,
    Degenerate,
    Geometric,
    MittagLeffler,
    sample_positive_stable,
)
from .nmid_compose import (
    NMaxStableLaw,
    mixture_cdf,
    same_type_decompose,
    sample_random_max,
    sample_random_max_seeded,
)
from .streams import as_generator, chunked_draws, substream
from .verify_harness import (
    ExperimentReport,
    Table,
    ks_critical,
    ks_distance,
    ks_two_sample,
    run_definetti,
    run_doa_table,
    run_lemma12,
    run_poincare,
    run_thm24,
    run_thm31,
    run_thm32,
    run_thm34,
)

__version__ = "0.1.0"
