"""Key-dependent chaotic S-box generation and cryptanalytic evaluation.

The toolkit has three layers:

* chaotic dynamics (``maps``): the piecewise AHYB map plus logistic/sine
  references, orbit sampling, bifurcation scans, Lyapunov exponents;
* generation (``generator``): chaotic table fill and key-dependent
  hill-climbing refinement, plus key-space accounting;
* evaluation (``metrics``/``corpus``): the Walsh/SAC/BIC/LP/DDT battery and
  a reference corpus for side-by-side comparison.

File formats live in ``boxfile``, serialization in ``reporting``, and the
command-line front door in ``cli`` (subcommands: generate, analyze, compare,
bifurcate, lyapunov).
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateOrbitWarning,
    DerivativeSkipWarning,
    DerivativeZero,
    GenerationStall,
    NonBijectiveWarning,
    NonFiniteState,
    NotBijective,
    ParamOutOfRange,
    ParseError,
    SBoxKitError,
)
from .maps import (
    BranchMode,
    MapKind,
    MapParams,
    bifurcation_scan,
    iterate,
    lyapunov,
    lyapunov_sweep,
    map_derivative,
    map_step,
    renormalize,
    round15,
)
from .generator import (
    KEYSPACE_COUNTS,
    KeySpec,
    Objective,
    RefineConfig,
    RefineStats,
    generate,
    initial_sbox,
    keyspace_bits,
    keyspace_report,
    refine_sbox,
)
from .metrics import (
    MetricReport,
    NLMode,
    as_sbox,
    bic_nl,
    component_bits,
    difference_distribution,
    differential_uniformity,
    fixed_points,
    full_report,
    is_bijective,
    linear_probability,
    nonlinearity,
    sac_matrix,
    sbox_nonlinearity,
    walsh_spectrum,
)
from .boxfile import BoxFormat, format_grid, load_sbox, parse_grid, save_sbox
from .corpus import CorpusEntry, builtin_corpus, compare, corpus_ids, get_entry, published_deltas
