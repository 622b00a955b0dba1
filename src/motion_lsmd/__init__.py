"""Action-activity detection via low-rank plus tree-structured-sparse
decomposition of frame differences, with a particle-filter tracker."""

from .config import Config, parse_config
from .detector import (
    DetectionReport,
    DetectorConfig,
    EventInterval,
    FrameScore,
    ReportRow,
    SynthSpec,
    aggregate_report,
    detect_events,
    frame_activity_energy,
    match_events,
    run_detection,
    synth_sequence,
)
from .ingest import (
    Frame,
    FrameSequence,
    ProposalSet,
    extract_proposals,
    feature_matrix,
    frame_difference,
    load_frame_sequence,
    warp_patch,
)
from .lsmd import (
    Decomposition,
    IndexTree,
    LsmdParams,
    activity_scores,
    build_index_tree,
    decompose,
    kmeans,
    prox_nuclear,
    prox_tree_norm,
    tree_norm,
)
from .sparse import SolverParams, SparseCode, kkt_residual, nn_lasso, soft_threshold
from .tracker import (
    AffineState,
    MotionModelParams,
    TemplateSet,
    TrackerConfig,
    TrackResult,
    discriminative_confidence,
    generative_confidence,
    map_estimate,
    propose_particles,
    track_sequence,
    update_templates,
)

__version__ = "0.1.0"
