"""Exact additive-combinatorics toolkit for finite abelian groups: translate
system VC dimension, almost-period regularity certificates, and bi-induced
bipartite pattern testing, all at desk scale with independent verification."""

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    GroupElement,
    Subgroup,
    generated_subgroup,
    subgroup_from_bits,
    enumerate_subgroups,
    cosets,
    coset_representatives,
)
from .subsets import (
    GroupSubset,
    AlmostPeriodSet,
    DoublingTrace,
    KneserReport,
    translate,
    symdiff_size,
    symdiff_profile,
    almost_periods,
    sumset,
    difference_set,
    iterated_doubling,
    max_subgroup_within,
    kneser_fill_check,
)
from .vc import (
    TranslateSystem,
    PackingResult,
    SauerReport,
    SampledVcReport,
    RateReport,
    SeparatedSampleReport,
    AdjacencyOracle,
    vc_dimension,
    set_vc_dimension,
    find_shattered_set,
    sauer_check,
    greedy_packing,
    sampled_vc,
    random_independent_subset_rate,
    separated_sample_bound_check,
)
from .regularity import (
    RegularityCertificate,
    CertificateCheck,
    RoundingBoundReport,
    OracleReport,
    RobustOutcome,
    coset_round,
    rounding_error_bound_check,
    regularize,
    verify_certificate,
    oracle_best_subgroup,
    robust_pipeline,
    default_delta_schedule,
)
from .patterns import (
    BipartitePattern,
    BiInducedWitness,
    TesterReport,
    CosetGoodness,
    DensifyReport,
    APWitness,
    half_graph,
    augment_f_plus,
    check_witness,
    find_bi_induced,
    witness_from_shattering,
    sample_tester,
    exhaustive_density,
    distance_to_free,
    coset_goodness,
    densify,
    ap_search,
    ap_half_graph_witness,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    split_seed,
    generate_family,
    run_experiment,
    rows_to_json_lines,
    rows_to_csv,
)
from .exhaustive import (
    abelian_group_moduli,
    all_abelian_groups,
    orbit_representatives,
)
from .stats import wilson_interval, binomial_sigma

__version__ = "0.1.0"
