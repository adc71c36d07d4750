"""Training-free architecture scoring and search.

Score a randomly initialized cell network by how well a mini-batch
separates into distinct linear regions of its ReLU units: form the
binary activation code of every input, build the Hamming kernel of the
codes, and take its log-determinant.  Higher scores predict better
trained accuracy, so the score can drive architecture search with no
training in the loop.
"""

from .benchdata import (
    BENCH_CSV_HEADER,
    BenchmarkRecord,
    DuplicateKeyError,
    EvaluatorMiss,
    EvaluatorTable,
    MissingFile,
    ParseError,
    TruncatedRecord,
    load_benchmark_csv,
    load_cifar10_batch,
    random_normal_batch,
    write_benchmark_csv,
)
from .network import (
    ActivationCodeMatrix,
    Network,
    NetworkConfig,
    NonFiniteActivation,
    build_network,
    count_relu_units,
    forward_collect_codes,
)
from .scoring import (
    Score,
    ScoreStatus,
    ZeroDiagonal,
    hamming_kernel,
    logdet_score,
    make_scorer,
    normalize_kernel,
    score_network,
)
from .search import Candidate, SearchResult, area_search, naswot_search, rea_search
from .searchspace import (
    EDGES,
    NUM_EDGES,
    SPACE_SIZE,
    Genotype,
    MalformedArchString,
    OpKind,
    enumerate_all,
    format_arch,
    mutate,
    parse_arch,
    sample_uniform,
)
from .stats import (
    ABLATION_BATCH_SIZES,
    ABLATION_MODES,
    AllSingularGroup,
    CorrelationReport,
    CorrelationRow,
    DegenerateInput,
    EmptyGroup,
    ablation_run,
    correlate_space,
    kendall_tau,
    normalize_by_min,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATION_BATCH_SIZES",
    "ABLATION_MODES",
    "ActivationCodeMatrix",
    "AllSingularGroup",
    "BENCH_CSV_HEADER",
    "BenchmarkRecord",
    "Candidate",
    "CorrelationReport",
    "CorrelationRow",
    "DegenerateInput",
    "DuplicateKeyError",
    "EDGES",
    "EmptyGroup",
    "EvaluatorMiss",
    "EvaluatorTable",
    "Genotype",
    "MalformedArchString",
    "MissingFile",
    "NUM_EDGES",
    "Network",
    "NetworkConfig",
    "NonFiniteActivation",
    "OpKind",
    "ParseError",
    "SPACE_SIZE",
    "Score",
    "ScoreStatus",
    "SearchResult",
    "TruncatedRecord",
    "ZeroDiagonal",
    "ablation_run",
    "area_search",
    "build_network",
    "correlate_space",
    "count_relu_units",
    "enumerate_all",
    "format_arch",
    "forward_collect_codes",
    "hamming_kernel",
    "kendall_tau",
    "load_benchmark_csv",
    "load_cifar10_batch",
    "logdet_score",
    "make_scorer",
    "mutate",
    "naswot_search",
    "normalize_by_min",
    "normalize_kernel",
    "parse_arch",
    "random_normal_batch",
    "rea_search",
    "sample_uniform",
    "score_network",
    "write_benchmark_csv",
]
