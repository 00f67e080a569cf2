"""wearbench: wrist-wearable session ingestion, feature extraction, and a
leave-one-out classification benchmark with synthetic ground-truth cohorts."""

from .session_io import (  # noqa: F401
    ChannelKind,
    Label,
    Session,
    SignalChannel,
    ValidationPolicy,
    ValidationReport,
    load_manifest,
    load_session,
    parse_channel_csv,
    validate_session,
    write_session,
)
from .synth import CohortSpec, SynthSpec, generate_cohort, \
    generate_session  # noqa: F401
from .pipeline import extract_session_features, run_extract  # noqa: F401
from .mlbench import (  # noqa: F401
    FeatureMatrix,
    assemble_matrix,
    compute_metrics,
    loocv_grid_search,
)
from .models import ModelKind, ModelSpec, predict, train  # noqa: F401

__version__ = "0.1.0"
