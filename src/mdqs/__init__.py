"""mdqs: multi-dimensional quality scoring for logged LLM outputs.

Score logged outputs on six dimensions, audit each dimension's agreement
with a trusted reference, calibrate the composite by dropping unreliable
dimensions, and stress the result inside a simulated consensus protocol
with adversarial evaluators.
"""

from mdqs.audit import (
    AblationRow,
    AuditBlock,
    AuditReport,
    CalibrationResult,
    CorrelationRow,
    ablation_grid,
    audit,
    calibrate,
    consensus_baselines,
)
from mdqs.composite import (
    PAPER_PRESET,
    VariantSpec,
    compose,
    compose_batch,
    make_variant,
)
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
    validate_dataset,
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
    Malicious,
    Mean,
    Median,
    RandomNoise,
    SimConfig,
    SingleEvaluator,
    TrimmedMean,
    aggregate,
    allocate_rewards,
    evaluator_emit,
    run_experiment,
    run_single,
    sample_evaluators,
    update_trust,
    weighted_median,
)
from mdqs.scoring import (
    CharNgramSemanticProvider,
    ColumnProvider,
    PriorTable,
    ScoreProvider,
    ScoringConfig,
    StructureFeatures,
    StructurePolicy,
    normalize_batch,
    score_agreement,
    score_all,
    score_structure,
    structure_features,
)
from mdqs.stats import average_ranks, pearson, rank_normalize, spearman
from mdqs.synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
