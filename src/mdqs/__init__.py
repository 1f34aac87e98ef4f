"""mdqs: multi-dimensional quality scoring for logged LLM outputs.

Score logged outputs on six dimensions, audit each dimension's agreement
with a trusted reference, calibrate the composite by dropping unreliable
dimensions, and stress the result inside a simulated consensus protocol
with adversarial evaluators.
"""

from mdqs.audit import (
    AuditBlock,
    AuditReport,
    CalibrationResult,
    CorrelationRow,
    ablation_grid,
    audit,
    calibrate,
    calibrate_per_task,
    consensus_baselines,
    with_composites,
)
from mdqs.composite import VARIANTS, compose, compose_batch, variant
from mdqs.model import (
    CANONICAL_DIMENSIONS,
    DEFAULT_WEIGHTS,
    DimensionId,
    DimensionVector,
    EvaluatorProfile,
    LoggedSample,
    SimError,
    SimOutcome,
    TaskFamily,
    ValidationReport,
    WeightConfig,
)
from mdqs.poq import (
    AdaptiveTrust,
    AttackStrategy,
    Camouflage,
    Collude,
    CompositeSignal,
    ConsensusBaseline,
    DefenseConfig,
    Deflate,
    Honest,
    Inflate,
    Mean,
    Median,
    RandomNoise,
    SimConfig,
    SimSettings,
    SingleEvaluator,
    TrimmedMean,
    run_experiment,
    run_single,
    sample_evaluators,
    weighted_median,
)
from mdqs.scoring import (
    PriorTable,
    ScoringConfig,
    StructureFeatures,
    StructurePolicy,
    column_value,
    normalize_batch,
    score_agreement,
    score_all,
    score_semantic,
    score_structure,
    structure_features,
    validate_dataset,
)
from mdqs.stats import average_ranks, pearson, rank_normalize, spearman
from mdqs.synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
