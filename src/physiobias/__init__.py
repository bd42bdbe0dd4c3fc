"""Wearable physiology pipeline: E4 ingestion, EDA decomposition, windowed
features, boosted-tree classification under leave-one-participant-out
cross-validation, and run-merging label smoothing."""

__version__ = "0.1.0"

from .dataset import Dataset, from_csv
from .eda import DecompParams, EdaComponents, bateman_kernel, decompose
from .errors import (
    DegenerateLabels,
    EmptySignal,
    InsufficientData,
    LabelError,
    MissingChannel,
    NoSessions,
    ParamError,
    ParseError,
    PhysioBiasError,
    ShapeError,
    SignalError,
)
from .evaluation import (
    EvalReport,
    FoldResult,
    aggregate_importance,
    evaluate,
    group_difference,
    lopo_folds,
    mann_whitney_u,
)
from .features import (
    FEATURE_COLUMNS,
    RRSeries,
    build_feature_matrix,
    detect_beats,
    eda_extra_features,
    extra_features,
    extract_session_features,
    feature_columns,
    hrv_features,
    stat_features,
    window_feature_matrix,
)
from .gbt import (
    GbtParams,
    TrainedModel,
    importance,
    predict_proba_matrix,
    train,
)
from .ingest import (
    Bias,
    BiasLabel,
    RawSession,
    assemble_session,
    load_labels,
    map_iat_category,
    parse_e4_csv,
    write_e4_csv,
)
from .signals import Signal, TriaxialSignal, magnitude, window_matrices
from .smoothing import (
    RunBlock,
    final_label,
    location_summary,
    majority_window_location,
    runs,
    smooth,
    smooth_with_trace,
)
from .synth import SynthParams, generate_corpus
