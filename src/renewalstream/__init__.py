"""Renewal-density analysis of timestamped event streams."""

from .characterization import (
    DEFAULT_THRESHOLDS,
    CharacterizationResult,
    DifferenceCurves,
    ZoneThresholds,
    characterize,
    classify_zone,
    difference,
)
from .detection import (
    DetectionConfig,
    DetectionReport,
    chi_square_cdf,
    chi_square_stat,
    detect,
    normalize_rd,
    split_subdensities,
    trimmed_mean_smooth,
)
from .errors import (
    DegenerateBinError,
    EmptyDensityError,
    EmptyStreamError,
    GridMismatchError,
    InsufficientDataError,
    InsufficientOverlapError,
    InvalidConfigError,
    ParseError,
    StreamAnalysisError,
)
from .estimation import (
    EstimationConfig,
    PartialSumTable,
    RenewalDensityEstimate,
    convolution_rd,
    empirical_rd,
    estimate_stream,
    first_order_pdf,
    partial_sums,
)
from .histogram import (
    Density,
    optimal_bin_width,
    shimazaki_cost,
)
from .ingest import (
    EventStream,
    InterArrivals,
    downsample,
    inter_arrivals,
    parse_stream,
    serialize_stream,
)
from .synth import GeneratorSpec, gen_cluster, gen_poisson, inject_periodic

__version__ = "0.1.0"
