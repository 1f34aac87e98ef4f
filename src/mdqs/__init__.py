"""mdqs: multi-dimensional quality scoring for logged LLM outputs.

Score logged outputs on six dimensions, audit each dimension's agreement
with a trusted reference, calibrate the composite by dropping unreliable
dimensions, and stress the result inside a simulated consensus protocol
with adversarial evaluators.

The names below load on first use (PEP 562), so `import mdqs` alone loads
no numpy and leaves the process environment as it found it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "mdqs.audit": (
        "AuditBlock", "AuditReport", "CalibrationResult", "CorrelationRow", "ablation_grid",
        "audit", "calibrate", "calibrate_per_task", "with_composites",
    ),
    "mdqs.composite": ("VARIANTS", "compose", "compose_batch", "variant"),
    "mdqs.model": (
        "Batch", "CANONICAL_DIMENSIONS", "DEFAULT_WEIGHTS", "DimensionId", "EvaluatorProfile",
        "LoggedSample", "SimError", "SimOutcome", "ValidationReport", "WeightConfig",
    ),
    "mdqs.poq": (
        "AdaptiveTrust", "AttackStrategy", "Camouflage", "Collude", "CompositeSignal",
        "ConsensusBaseline", "DefenseConfig", "Deflate", "Honest", "Inflate", "Mean", "Median",
        "RandomNoise", "SimConfig", "SimSettings", "SingleEvaluator", "TrimmedMean",
        "run_experiment", "run_single", "sample_evaluators", "weighted_median",
    ),
    "mdqs.scoring": (
        "PriorTable", "ScoringConfig", "StructureFeatures", "StructurePolicy", "column_value",
        "consensus_baselines", "normalize_batch", "score_agreement", "score_all",
        "score_semantic", "score_structure", "structure_features", "validate_dataset",
    ),
    "mdqs.stats": ("average_ranks", "pearson", "rank_normalize", "spearman"),
    "mdqs.synth": ("SyntheticSpec", "generate_synthetic"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

# submodules reachable as attributes of a bare `import mdqs`, like mdqs.stats
_SUBMODULES = ("composite", "errors", "model", "poq", "rng", "scoring", "stats", "synth")


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(_SOURCE[name]), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Root(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule mdqs.audit binds it as `mdqs.audit`; the
        # root exports the function of that name, so `from mdqs import audit`
        # must get the function whichever of the two loaded first.
        if isinstance(value, types.ModuleType) and value.__name__ == _SOURCE.get(name):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
