"""Dimension scorers: priors, structure heuristics, semantic similarity,
alignment columns, agreement, and batch normalization."""

import math
import random
import re
import statistics
from collections import Counter

import numpy as np
import pytest

import mdqs.scoring
from conftest import make_sample
from mdqs.errors import (
    EmptyPriorTable,
    MissingColumn,
    MissingReferenceText,
    SchemaError,
    TooFewEvaluators,
)
from mdqs.model import CANONICAL_DIMENSIONS, DIMENSION_COLUMN, Batch, DimensionId, WeightConfig
from mdqs.scoring import (
    PriorTable,
    ScoringConfig,
    StructurePolicy,
    column_value,
    consensus_baselines,
    normalize_batch,
    score_agreement,
    score_all,
    score_semantic,
    score_structure,
    structure_features,
    validate_dataset,
)


# ---------------------------------------------------------------- priors

def test_prior_table_min_max():
    t = PriorTable("model_rating", {"a": 1000.0, "b": 1200.0, "c": 1100.0})
    assert t.normalized("a") == 0.0
    assert t.normalized("b") == 1.0
    assert t.normalized("c") == pytest.approx(0.5)
    with pytest.raises(TypeError):  # normalized once, at construction
        t.ratings["d"] = 1300.0


def test_prior_table_single_entry_is_midpoint():
    t = PriorTable("model_rating", {"solo": 1500.0})
    assert t.normalized("solo") == 0.5


def test_prior_table_zero_range_is_midpoint():
    t = PriorTable("model_rating", {"a": 7.0, "b": 7.0})
    assert t.normalized("a") == 0.5
    assert t.normalized("b") == 0.5


def test_prior_table_unknown_producer_gets_median():
    t = PriorTable("model_rating", {"a": 1000.0, "b": 1200.0, "c": 1600.0})
    # median rating 1200 over a [1000, 1600] range
    assert t.normalized("mystery") == pytest.approx(200.0 / 600.0)
    assert t.normalized("a") == 0.0


def test_prior_table_empty_raises():
    with pytest.raises(EmptyPriorTable):
        PriorTable("model_rating", {}).normalized("a")


def test_prior_table_rejects_non_finite_rating():
    with pytest.raises(ValueError):
        PriorTable("model_rating", {"a": float("nan")})


# ------------------------------------------------------------- structure

def test_structure_empty_output_is_zero():
    assert score_structure("") == 0.0
    assert score_structure("   \n\t ") == 0.0


def test_structure_clean_text_scores_one():
    words = " ".join(f"item{i} value{i}" for i in range(20))
    assert score_structure(words) == 1.0


def test_structure_heavy_repetition_penalized():
    assert score_structure("the the the the the the") <= 0.7


def test_structure_length_band():
    # 3 clean tokens: only the out-of-band penalty applies
    assert score_structure("one two three") == pytest.approx(0.7)
    long_text = " ".join(f"w{i}" for i in range(2000))
    assert score_structure(long_text) == pytest.approx(0.7)
    inside = " ".join(f"w{i}" for i in range(50))
    assert score_structure(inside) == 1.0


def test_structure_degeneration_flag():
    # one 4-gram repeated 3 times trips the degeneration check
    loop = "alpha beta gamma delta " * 3 + "tail words here now"
    assert structure_features(loop).degeneration
    varied = " ".join(f"tok{i}" for i in range(30))
    assert not structure_features(varied).degeneration


def test_structure_format_violations():
    feats = structure_features("unbalanced ( bracket [ and ``` fence " + "x " * 12)
    assert feats.format_violations == 3
    balanced = "fine (pair) [ok] {good} " + " ".join(f"w{i}" for i in range(12))
    assert structure_features(balanced).format_violations == 0


def test_structure_format_cap():
    # four violation kinds exist but the penalty caps at 3
    text = '( [ { ``` " ' + " ".join(f"w{i}" for i in range(12))
    feats = structure_features(text)
    assert feats.format_violations >= 4
    assert score_structure(text) == pytest.approx(1.0 - 0.2)


def test_structure_score_never_negative():
    junk = "((( ((( " + "no no no no " * 4
    assert 0.0 <= score_structure(junk) <= 1.0


def test_structure_policy_validation():
    with pytest.raises(ValueError):
        StructurePolicy(min_tokens=20, max_tokens=5)
    with pytest.raises(ValueError):
        StructurePolicy(length_weight=-0.1)


@pytest.mark.parametrize(
    "field", ["repetition_ngram", "degeneration_ngram", "degeneration_min_count"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_structure_policy_refuses_sizes_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        StructurePolicy(**{field: value})
    assert getattr(StructurePolicy(**{field: 1}), field) == 1


# -------------------------------------------------------------- semantic

def test_semantic_identical_text_is_exactly_one():
    s = make_sample(sample_id="s0", output="The Quick Fox", reference_text="the  quick fox")
    assert score_semantic(s) == 1.0


def test_semantic_empty_side_is_zero():
    assert score_semantic(make_sample(sample_id="s0", output="", reference_text="words")) == 0.0
    assert score_semantic(make_sample(sample_id="s0", output="words", reference_text="")) == 0.0


@pytest.mark.parametrize(
    "output, reference, expected",
    [
        ("ok", "no", 0.0),
        ("ab", "cd", 0.0),
        ("", "a", 0.0),
        ("", "", 1.0),
        ("OK", " ok\n", 1.0),
        ("a  b", "a b", 1.0),
        ("ok", "okay", 0.0),
    ],
)
def test_semantic_texts_without_a_trigram_match_only_equal_texts(output, reference, expected):
    sample = make_sample(sample_id="s0", output=output, reference_text=reference)
    assert score_semantic(sample) == expected


def test_semantic_partial_overlap_strictly_between():
    s = make_sample(
        sample_id="s0",
        output="the cat sat on the mat",
        reference_text="the dog sat on the rug",
    )
    assert 0.0 < score_semantic(s) < 1.0


def test_semantic_missing_reference_raises():
    with pytest.raises(MissingReferenceText):
        score_semantic(make_sample(sample_id="s0", output="text", reference_text=None))


def test_column_provider_reads_evaluator_scores():
    s = make_sample(sample_id="s0", evaluator_scores={"judge": 0.73})
    assert column_value(s, "judge") == 0.73


def test_column_provider_falls_back_to_extra():
    s = make_sample(sample_id="s0", extra={"quality_flag": 0.4})
    assert column_value(s, "quality_flag") == 0.4


def _semantic_from_column(column, sample):
    """score_all over one sample, with semantic read from `column`."""
    weights = WeightConfig("semantic", {DimensionId.SEMANTIC: 1.0})
    return score_all(Batch([sample]), ScoringConfig(weights=weights, semantic_column=column))


def test_column_provider_missing_or_non_numeric():
    for column, sample in (
        ("absent", make_sample(sample_id="s0")),
        ("flag", make_sample(sample_id="s0", extra={"flag": True})),
        ("flag", make_sample(sample_id="s0", extra={"flag": "high"})),
        ("flag", make_sample(sample_id="s0", extra={"flag": math.inf})),
        ("flag", make_sample(sample_id="s0", extra={"flag": math.nan})),
        ("flag", make_sample(sample_id="s0", extra={"flag": 10**400})),  # beyond float range
    ):
        assert column_value(sample, column) is None
        with pytest.raises(MissingColumn):
            _semantic_from_column(column, sample)


def _no_column(*args):
    raise AssertionError("a column was built before every sample was checked")


def test_semantic_column_provider_normalizes_the_column(monkeypatch):
    # an evaluator score is read first, then an extra field of that name
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"sts": 0.2}, extra={"sts": 0.9}),
        make_sample(sample_id="s1", extra={"sts": 0.6}),
        make_sample(sample_id="s2", evaluator_scores={"sts": 1.0, "other": 0.0}),
        make_sample(sample_id="s3", extra={"sts": 1}),
    ]
    monkeypatch.setattr(mdqs.scoring, "_semantic_block", _no_column)  # not the built-in scorer
    weights = WeightConfig("semantic", {DimensionId.SEMANTIC: 1.0})
    config = ScoringConfig(weights=weights, semantic_column="sts")
    scored, raw_ranges = score_all(Batch(samples), config)
    assert raw_ranges == {DimensionId.SEMANTIC: (0.2, 1.0)}
    column = scored.dims[:, DIMENSION_COLUMN[DimensionId.SEMANTIC]].tolist()
    assert column == normalize_batch([0.2, 0.6, 1.0, 1.0])
    assert column == pytest.approx([0.0, 0.5, 1.0, 1.0])
    assert np.isnan(np.delete(scored.dims, DIMENSION_COLUMN[DimensionId.SEMANTIC], axis=1)).all()
    # frozen stats normalize the same column against them instead
    frozen = ScoringConfig(
        weights=weights, semantic_column="sts", frozen_stats={DimensionId.SEMANTIC: (0.0, 2.0)}
    )
    scored, _ = score_all(Batch(samples), frozen)
    assert scored.dims[:, DIMENSION_COLUMN[DimensionId.SEMANTIC]].tolist() == [0.1, 0.3, 0.5, 0.5]


def test_semantic_column_provider_refuses_a_missing_column_first(monkeypatch):
    good = make_sample(sample_id="ok", evaluator_scores={"sts": 0.5})
    bad = make_sample(sample_id="bad", reference_text="ref", extra={"other": 0.5})
    weights = WeightConfig("semantic", {DimensionId.SEMANTIC: 1.0})
    config = ScoringConfig(weights=weights, semantic_column="sts")
    monkeypatch.setattr(mdqs.scoring, "_raw_column", _no_column)
    message = "column 'sts' not found or not a finite number (sample bad)"
    with pytest.raises(MissingColumn, match=rf"^{re.escape(message)}$"):
        score_all(Batch([good, bad]), config)
    report = validate_dataset(Batch([good, bad]), config)
    assert (report.valid_count, report.invalid_count) == (1, 1)
    assert [(i.sample_id, i.fieldname, i.message) for i in report.issues] == [
        ("bad", "sts", message)
    ]


# ------------------------------------------------------------- agreement

def test_agreement_known_value():
    s = make_sample(sample_id="s0", evaluator_scores={"a": 0.2, "b": 0.5, "c": 0.8})
    # population sd of [0.2, 0.5, 0.8] is sqrt(0.06)
    assert score_agreement(s) == pytest.approx(1.0 - math.sqrt(0.06) / 0.5, abs=1e-12)


def test_agreement_unanimous_is_one():
    s = make_sample(sample_id="s0", evaluator_scores={"a": 0.6, "b": 0.6})
    assert score_agreement(s) == 1.0


def test_agreement_max_disagreement_is_zero():
    s = make_sample(sample_id="s0", evaluator_scores={"a": 0.0, "b": 1.0})
    assert score_agreement(s) == 0.0


def test_agreement_needs_two_evaluators():
    with pytest.raises(TooFewEvaluators):
        score_agreement(make_sample(sample_id="s0", evaluator_scores={"a": 0.5}))
    with pytest.raises(TooFewEvaluators):
        score_agreement(make_sample(sample_id="s0", evaluator_scores={}))


# ---------------------------------------------------------- normalization

def test_normalize_batch_min_max():
    assert normalize_batch([-1.0, 0.0, 3.0]) == [0.0, 0.25, 1.0]
    # a range wider than the largest float: hi - lo alone would overflow to inf
    assert normalize_batch([-1e308, 0.0, 1e308]) == [0.0, 0.5, 1.0]


def test_normalize_batch_zero_range_and_empty():
    assert normalize_batch([2.0, 2.0, 2.0]) == [0.5, 0.5, 0.5]
    assert normalize_batch([]) == []


def test_normalize_batch_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_batch([1.0, float("nan")])


def test_normalize_with_stats_clips():
    assert normalize_batch([-5.0, 0.0, 10.0, 20.0], (0.0, 10.0)) == [0.0, 0.0, 1.0, 1.0]
    assert normalize_batch([-1e308, 0.0, 5e307], (-1e308, 1e308)) == [0.0, 0.5, 0.75]
    # degenerate frozen window collapses to the midpoint
    assert normalize_batch([3.0, 9.0], (4.0, 4.0)) == [0.5, 0.5]


def test_reversed_frozen_stats_are_refused():
    with pytest.raises(ValueError, match="min <= max"):
        normalize_batch([0.2, 0.5], (0.9, 0.1))
    semantic = WeightConfig("semantic", {DimensionId.SEMANTIC: 1.0})
    for pair in ((0.9, 0.1), (0.1, math.nan), (-math.inf, 1.0)):
        config = ScoringConfig(weights=semantic, frozen_stats={DimensionId.SEMANTIC: pair})
        with pytest.raises(SchemaError, match=r"normalization\.stats\.semantic"):
            score_all(_batch(), config)
    # an equal pair is a zero-width window, not a reversed one
    config = ScoringConfig(weights=semantic, frozen_stats={DimensionId.SEMANTIC: (0.4, 0.4)})
    scored, _ = score_all(_batch(), config)
    assert set(scored.dims[:, DIMENSION_COLUMN[DimensionId.SEMANTIC]].tolist()) == {0.5}


# normalize_batch, normalize_with_stats and PriorTable.normalized as they were
# when each wrote its own min-max formula, kept verbatim as the oracle that
# the one normalize_batch must match bit for bit.


def _ref_normalize_batch(values):
    vals = [float(v) for v in values]
    if not vals:
        return []
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("cannot normalize non-finite values")
    lo = min(vals)
    hi = max(vals)
    if hi == lo:
        return [0.5] * len(vals)
    lo, span = lo / 2, hi / 2 - lo / 2
    return [(v / 2 - lo) / span for v in vals]


def _ref_normalize_with_stats(values, lo, hi):
    if hi <= lo:
        return [0.5 for _ in values]
    lo, span = lo / 2, hi / 2 - lo / 2
    return [min(1.0, max(0.0, (float(v) / 2 - lo) / span)) for v in values]


def _ref_prior_normalized(ratings, producer_id):
    if not ratings:
        raise EmptyPriorTable("prior table is empty")
    rating = ratings.get(producer_id)
    if rating is None:
        rating = statistics.median(ratings.values())
    lo = min(ratings.values())
    hi = max(ratings.values())
    if hi == lo:
        return 0.5
    return (rating - lo) / (hi - lo)


def _oracle_values(rng, n):
    """n values at one scale between 1e-30 and 1e308: ties, signed zeros and
    whole multiples of the scale mixed with uniform draws. Every scale stays far above the
    subnormal range, so halving a value or a difference never rounds."""
    scale = rng.choice([10.0 ** rng.randint(-30, 30), 1e307, 1e308])
    pool = [0.0, -0.0, scale, -scale, 2 * scale if scale < 1e308 else scale]
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.3 and out:
            out.append(rng.choice(out))  # a tie
        elif kind < 0.5:
            out.append(rng.choice(pool))
        else:
            out.append(rng.uniform(-1.0, 1.0) * scale)
    return out


def _hexes(values):
    return [v.hex() for v in values]


def test_one_normalize_batch_matches_the_three_formulas_it_replaced():
    rng = random.Random(20261019)
    for _ in range(3000):
        values = _oracle_values(rng, rng.randint(0, 8))
        assert _hexes(normalize_batch(values)) == _hexes(_ref_normalize_batch(values)), values
        if not values:
            continue
        window = sorted(_oracle_values(rng, 2)) if rng.random() < 0.8 else [values[0]] * 2
        lo, hi = window
        got = normalize_batch(values, (lo, hi))
        assert _hexes(got) == _hexes(_ref_normalize_with_stats(values, lo, hi)), (values, window)
    for _ in range(3000):
        ratings = {f"p{i}": v for i, v in enumerate(_oracle_values(rng, rng.randint(1, 6)))}
        table = PriorTable("model_rating", ratings)
        values = sorted(ratings.values())
        mid = len(values) // 2
        # the old formula overflows on a range or an even median sum past the float limit
        overflows = not math.isfinite(values[-1] - values[0]) or (
            len(values) % 2 == 0 and not math.isfinite(values[mid - 1] + values[mid])
        )
        for producer in [*ratings, "unknown"]:
            got = table.normalized(producer)
            if overflows:
                assert 0.0 <= got <= 1.0, ratings
            else:
                assert got.hex() == _ref_prior_normalized(ratings, producer).hex(), ratings


def test_normalize_evaluator_scores_per_column():
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"j": 10.0, "k": 0.2}),
        make_sample(sample_id="s1", evaluator_scores={"j": 30.0, "k": 0.4}),
        make_sample(sample_id="s2", evaluator_scores={"j": 20.0, "k": 0.3}),
    ]
    batch = Batch(samples)
    ids, table = batch.evaluator_ids, batch.normalized_scores()
    assert ids == ["j", "k"]
    assert table[:, 0].tolist() == [0.0, 1.0, 0.5]
    assert table[:, 1].tolist() == pytest.approx([0.0, 1.0, 0.5])


def test_normalize_evaluator_scores_partial_coverage():
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"j": 1.0}),
        make_sample(sample_id="s1", evaluator_scores={"j": 3.0, "k": 5.0}),
        make_sample(sample_id="s2", evaluator_scores={"k": 9.0}),
    ]
    batch = Batch(samples)
    ids, table = batch.evaluator_ids, batch.normalized_scores()
    assert ids == ["j", "k"]
    raw = [[1.0, math.nan], [3.0, 5.0], [math.nan, 9.0]]
    np.testing.assert_array_equal(batch.evaluator_scores, raw)
    # NaN where a sample has no score from that evaluator
    np.testing.assert_array_equal(table, [[0.0, math.nan], [1.0, 0.0], [math.nan, 1.0]])


def test_repeated_sample_id_is_refused():
    # merged under one id, the first s1's scores (each the minimum of its
    # column, so agreement 1.0) were overwritten by the second's
    samples = [
        make_sample(sample_id="s1", evaluator_scores={"j": 0.0, "k": 0.0}),
        make_sample(sample_id="s2", evaluator_scores={"j": 1.0, "k": 1.0}),
        make_sample(sample_id="s1", evaluator_scores={"j": 1.0, "k": 0.0}),
    ]
    with pytest.raises(SchemaError, match="duplicate sample_id 's1'"):
        Batch(samples)  # so neither the normalized table nor score_all can see it
    batch = Batch(samples[:2])
    ids, table = batch.evaluator_ids, batch.normalized_scores()
    assert ids == ["j", "k"] and table[0].tolist() == [0.0, 0.0]  # s1's row


# --------------------------------------------------------------- score_all

def _full_config(**overrides):
    cfg = ScoringConfig(
        model_priors=PriorTable("model_rating", {"m1": 1000.0, "m2": 1200.0}),
        cost_priors=PriorTable("cost_efficiency", {"m1": 1.0, "m2": 0.5}),
        alignment_column="judge",
    )
    return cfg._replace(**overrides) if overrides else cfg


def _batch(n=6):
    samples = []
    for i in range(n):
        samples.append(
            make_sample(
                sample_id=f"s{i}",
                producer_id="m1" if i % 2 == 0 else "m2",
                output=" ".join(f"word{j + i}" for j in range(15)),
                reference_text=" ".join(f"word{j}" for j in range(15)),
                evaluator_scores={"judge": 0.1 * i + 0.2, "peer": 0.9 - 0.1 * i},
            )
        )
    return Batch(samples)


def test_score_all_full_pipeline():
    dims = score_all(_batch(), _full_config())[0].dims
    assert dims.shape == (6, len(CANONICAL_DIMENSIONS)) and dims.dtype == np.float64
    for row in dims.tolist():
        for v in row:  # a NaN, an absent score, fails too
            assert 0.0 <= v <= 1.0


def test_score_all_normalizes_each_dimension_over_batch():
    dims = score_all(_batch(), _full_config())[0].dims
    for d in CANONICAL_DIMENSIONS:
        col = dims[:, DIMENSION_COLUMN[d]].tolist()
        if max(col) != min(col):
            assert min(col) == 0.0
            assert max(col) == 1.0


def test_score_all_idempotent():
    batch = _batch()
    once, _ = score_all(batch, _full_config())
    twice, _ = score_all(batch, _full_config())
    assert batch.samples == _batch().samples  # the samples are left as they were
    assert np.isnan(batch.dims).all() and once.samples is batch.samples
    assert once.dims.tolist() == twice.dims.tolist()


def test_score_all_empty_batch():
    scored, raw_ranges = score_all(Batch([]), _full_config())
    assert scored.dims.shape == (0, len(CANONICAL_DIMENSIONS)) and raw_ranges == {}


def test_score_all_frozen_stats_round_trip():
    scored, stats = score_all(_batch(), _full_config())
    frozen, _ = score_all(_batch(), _full_config(frozen_stats=stats))
    for a, b in zip(scored.dims.tolist(), frozen.dims.tolist()):
        assert a == pytest.approx(b, abs=1e-12)


def test_score_all_frozen_stats_clip_new_data():
    _, stats = score_all(_batch(), _full_config())
    # a sample far outside the frozen windows still lands in [0, 1]
    outlier = make_sample(
        sample_id="big",
        producer_id="m1",
        output="word0 " * 40,
        reference_text="word0 word1",
        evaluator_scores={"judge": 50.0, "peer": -10.0},
    )
    scored, _ = score_all(Batch([*_batch().samples, outlier]), _full_config(frozen_stats=stats))
    for v in scored.dims[-1].tolist():
        assert 0.0 <= v <= 1.0


def test_score_all_inactive_dimensions_skipped():
    cfg = ScoringConfig(weights=WeightConfig("structure_only", {DimensionId.STRUCTURE: 1.0}))
    scored, raw_ranges = score_all(_batch(), cfg)
    for row in scored.dims.tolist():
        assert {d for d, v in zip(CANONICAL_DIMENSIONS, row) if v == v} == {DimensionId.STRUCTURE}
    assert raw_ranges.keys() == {DimensionId.STRUCTURE}


def test_score_all_missing_prior_table_raises():
    with pytest.raises(EmptyPriorTable):
        score_all(_batch(), _full_config(model_priors=None))


def test_score_all_alignment_without_provider_raises():
    with pytest.raises(SchemaError):
        score_all(_batch(), _full_config(alignment_column=None))


def test_score_all_refuses_missing_inputs_before_any_column(monkeypatch):
    good = make_sample(
        sample_id="ok", reference_text="ref", evaluator_scores={"judge": 0.5, "other": 0.1}
    )
    assert len(score_all(Batch([good]), _full_config())[0]) == 1

    def unreached(samples):
        raise AssertionError("a column was built before every sample was checked")

    monkeypatch.setattr(mdqs.scoring, "_semantic_block", unreached)
    one_score = make_sample(sample_id="bad3", reference_text="ref", evaluator_scores={"judge": 0.5})
    with pytest.raises(TooFewEvaluators):
        score_all(Batch([good, one_score]), _full_config())
    no_ref = make_sample(sample_id="bad", evaluator_scores={"judge": 0.5})
    with pytest.raises(MissingReferenceText):
        score_all(Batch([good, no_ref]), _full_config())
    no_col = make_sample(sample_id="bad2", reference_text="ref")
    with pytest.raises(MissingColumn):
        score_all(Batch([good, no_col]), _full_config())


def test_score_all_reports_raw_extremes():
    _, stats = score_all(_batch(), _full_config())
    assert set(stats) == set(CANONICAL_DIMENSIONS)
    for lo, hi in stats.values():
        assert lo <= hi
    # evaluator column "judge" spans 0.2 .. 0.7 raw
    lo, hi = stats[DimensionId.ALIGNMENT]
    assert lo == pytest.approx(0.2)
    assert hi == pytest.approx(0.7)


# ------------------------------------------- reference text scorers
# _trigram_counts, score_semantic, _ngrams and structure_features as they
# were before the code-point arrays, and score_structure as it was before
# the shared n-gram count, kept verbatim as the oracle the array and block
# forms must match.


def _ref_trigram_counts(text: str) -> Counter:
    text = " ".join(text.lower().split())
    return Counter(text[i : i + 3] for i in range(len(text) - 2))


def _ref_score_semantic(sample) -> float:
    if sample.reference_text is None:
        raise MissingReferenceText(sample.sample_id)
    a = _ref_trigram_counts(sample.output)
    b = _ref_trigram_counts(sample.reference_text)
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    dot = sum(c * b[g] for g, c in a.items())
    norm = math.sqrt(sum(c * c for c in a.values())) * math.sqrt(
        sum(c * c for c in b.values())
    )
    return min(1.0, max(0.0, dot / norm))


def _ref_ngrams(tokens, n: int):
    if len(tokens) < n:
        return []
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _ref_structure_features(text: str, policy: StructurePolicy | None = None):
    policy = policy or StructurePolicy()
    tokens = text.split()
    bigrams = _ref_ngrams(tokens, policy.repetition_ngram)
    if bigrams:
        counts = Counter(bigrams)
        repeated = sum(1 for g in bigrams if counts[g] >= 2)
        repetition_ratio = repeated / len(bigrams)
    else:
        repetition_ratio = 0.0
    four_grams = Counter(_ref_ngrams(tokens, policy.degeneration_ngram))
    degeneration = bool(four_grams) and max(four_grams.values()) >= policy.degeneration_min_count
    return mdqs.scoring.StructureFeatures(
        length_tokens=len(tokens),
        repetition_ratio=repetition_ratio,
        format_violations=mdqs.scoring._format_violations(text),
        degeneration=degeneration,
    )


def _ref_score_structure(text: str, policy: StructurePolicy | None = None) -> float:
    policy = policy or StructurePolicy()
    feats = _ref_structure_features(text, policy)
    if feats.length_tokens == 0:
        return 0.0
    out_of_band = not (policy.min_tokens <= feats.length_tokens <= policy.max_tokens)
    penalty = (
        policy.length_weight * (1.0 if out_of_band else 0.0)
        + policy.repetition_weight * feats.repetition_ratio
        + policy.format_weight * min(feats.format_violations, 3) / 3.0
        + policy.degeneration_weight * (1.0 if feats.degeneration else 0.0)
    )
    return max(0.0, 1.0 - penalty)


# 'İ' lowers to two code points, 'ß' stays one; U+0301 is a combining mark,
# U+D800 a lone surrogate
TEXT_PIECES = (
    "a", "b", "ab", "ba", "abc", "A", "İ", "ß", "e\u0301", "東京", "天気",
    "\U0001F642", "\U0001F469\u200d\U0001F4BB", "\x00", "\U0010FFFF", "\ud800",
    " ", "  ", "\t", "\n", " \t\n ", "(", '"', "```",
)
# equal gram sets with unequal counts ("abab", "ababa") score below 1.0
EDGE_PAIRS = (
    ("", ""), ("", " \t\n"), ("", "abc"), ("a", "a"), ("ab", "ab"), ("abc", "abc"),
    ("abc", "ABC"), ("abab", "baba"), ("aaaa", "aaaaaa"), ("a" * 40, "a" * 3),
    ("abab", "ababa"), ("abcabc", "abc" * 3), ("İ", "i\u0307"), ("İİ", "i\u0307i\u0307"),
    ("ß", "SS"), ("\ud800" * 3, "\ud800" * 4), ("\x00\x00\x00", "\x00 \x00"),
    ("\U0010FFFF" * 3, "\U0010FFFF" * 3), ("tab\there", "tab here"),
    ("line\nbreak\n", "line break"),
)
# neither side has a trigram and the normalized texts differ: the Counter
# form scored 1.0 (two empty Counters compare equal), the arrays score 0.0
SHORT_TEXT_CHANGES = (("ok", "no"), ("ab", "cd"), ("", "a"), ("İ", "i"), ("x", " y "))


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.choice((0, 1, 2, 4, 6, 9, 14, 20))))


def _normalized(text: str) -> str:
    return " ".join(text.lower().split())


def test_semantic_matches_the_counter_reference():
    rng = random.Random(13)
    pairs = [*EDGE_PAIRS, *SHORT_TEXT_CHANGES]
    pairs += [(_random_text(rng), _random_text(rng)) for _ in range(3200)]
    pairs += [(text, text[::-1]) for text, _ in pairs[-200:]]
    changed, scores = [], Counter()
    for output, reference in pairs:
        sample = make_sample(sample_id="s0", output=output, reference_text=reference)
        new, old = score_semantic(sample), _ref_score_semantic(sample)
        if new.hex() != old.hex():
            changed.append((output, reference))
            a, b = _normalized(output), _normalized(reference)
            assert max(len(a), len(b)) < 3 and a != b
            assert (old, new) == (1.0, 0.0)
        else:
            scores[new if new in (0.0, 1.0) else "between"] += 1
    assert set(SHORT_TEXT_CHANGES) <= set(changed)
    # the random texts reach the short-text rule and every other outcome
    assert len(changed) > len(SHORT_TEXT_CHANGES)
    assert len(pairs) - len(changed) >= 3000
    assert min(scores[0.0], scores[1.0], scores["between"]) >= 100, scores


def _expected_semantic(output: str, reference: str) -> float:
    """The Counter reference under the short-text rule: two texts without a
    trigram score 1.0 only when their normalized forms are equal."""
    a, b = _normalized(output), _normalized(reference)
    if max(len(a), len(b)) < 3 and a != b:
        return 0.0
    return _ref_score_semantic(make_sample(sample_id="s0", output=output, reference_text=reference))


def _decoded_keys(texts: list[str]) -> list[Counter]:
    """The trigram Counter of each text, decoded from the block's keys: a
    rank is the position of its code point among the block's distinct ones."""
    keys, a = mdqs.scoring._trigram_keys(texts)
    assert keys.tolist() == sorted(keys.tolist())
    points = sorted(set("".join(texts)))
    assert a == len(points)
    counts = [Counter() for _ in texts]
    for key in keys.tolist():
        sample, gram = divmod(key >> 1, a**3)
        trigram = "".join(points[gram // a**k % a] for k in (2, 1, 0))
        counts[2 * sample + (key & 1)][trigram] += 1
    return counts


def test_trigram_codes_count_the_counter_trigrams():
    rng = random.Random(14)
    texts = [text for pair in EDGE_PAIRS for text in pair]
    texts += [_random_text(rng) for _ in range(500)]
    # a block of few distinct code points, and the same block with U+10FFFF
    words = ["".join(rng.choice("abcdefgh ") for _ in range(rng.randrange(40))) for _ in range(32)]
    blocks = [texts[i : i + 32] for i in range(0, len(texts), 32)]
    blocks += [words, words + ["\U0010FFFF"] * 2]
    for block in blocks:
        block = [_normalized(text) for text in block[: len(block) // 2 * 2]]
        assert _decoded_keys(block) == [_ref_trigram_counts(text) for text in block]


def _cost(pair: tuple[str, str]) -> int:
    return len(pair[0]) + len(pair[1]) + 1


def _column_pairs() -> list[tuple[str, str]]:
    """The counter-reference pairs in groups that fill the semantic block
    budget exactly, each starting and ending on a short or empty pair; a
    filler pair before the last one takes up what the group leaves."""
    rng = random.Random(13)
    pairs = [*EDGE_PAIRS, *SHORT_TEXT_CHANGES]
    pairs += [(_random_text(rng), _random_text(rng)) for _ in range(3200)]
    pairs += [(text, text[::-1]) for text, _ in pairs[-200:]]
    short = [*SHORT_TEXT_CHANGES, ("", ""), ("a", "a"), ("", " ")]
    out, i = [], 0
    while i < len(pairs):
        first, last = short[len(out) % len(short)], short[(len(out) + 1) % len(short)]
        left = mdqs.scoring._BLOCK_CODE_POINTS - _cost(first) - _cost(last) - 200
        group = []
        while i < len(pairs) and _cost(pairs[i]) <= left:
            left -= _cost(pairs[i])
            group.append(pairs[i])
            i += 1
        filler = "ab" * (left + 200)
        half = (left + 199) // 2
        out += [first, *group, (filler[:half], filler[: left + 199 - half]), last]
    return out


def test_semantic_column_matches_the_counter_reference():
    pairs = _column_pairs()
    batch = Batch(
        make_sample(sample_id=f"s{i}", output=output, reference_text=reference)
        for i, (output, reference) in enumerate(pairs)
    )
    blocks = list(mdqs.scoring._semantic_blocks(batch.samples))
    budget = mdqs.scoring._BLOCK_CODE_POINTS
    assert len(blocks) >= 10
    for block in blocks:
        # each block fills the budget exactly, and starts and ends on a short pair
        assert sum(_cost((s.output, s.reference_text)) for s in block) == budget
        for s in (block[0], block[-1]):
            assert max(len(_normalized(s.output)), len(_normalized(s.reference_text))) < 3
    config = ScoringConfig(weights=WeightConfig("semantic", {DimensionId.SEMANTIC: 1.0}))
    column = mdqs.scoring._raw_column(DimensionId.SEMANTIC, batch, config)
    want = [_expected_semantic(output, reference) for output, reference in pairs]
    assert [v.hex() for v in column] == [v.hex() for v in want]
    # one sample at a time is the same block pass
    assert [score_semantic(s).hex() for s in batch.samples[:300]] == [v.hex() for v in want[:300]]
    _, raw_ranges = score_all(batch, config)
    assert raw_ranges == {DimensionId.SEMANTIC: (min(want), max(want))}


def test_semantic_blocks_cut_at_the_code_point_budget():
    budget = mdqs.scoring._BLOCK_CODE_POINTS
    # a sample costs its output and reference code points plus one
    costs = [budget, 1, budget - 1, 1, budget + 1, 1, 1, budget]
    samples = [
        make_sample(sample_id=f"s{i}", output="x" * (c // 2), reference_text="y" * ((c - 1) // 2))
        for i, c in enumerate(costs)
    ]
    blocks = mdqs.scoring._semantic_blocks(samples)
    assert [len(block) for block in blocks] == [1, 2, 1, 1, 2, 1]
    assert list(mdqs.scoring._semantic_blocks([])) == []


def test_lowercasing_at_most_doubles_a_text():
    # the semantic block budget's bound on the trigram keys rests on this
    longer = {c: len(chr(c).lower()) for c in range(0x110000) if len(chr(c).lower()) > 1}
    assert longer == {0x130: 2}


def test_semantic_block_past_int64_keys_is_split(monkeypatch):
    # 16 samples over 720,000 distinct astral code points: keys for all 16
    # in one block could pass 2**63 (2 * 16 * A**3), but each sample is over
    # the code-point budget, so each is a block of its own
    rng = random.Random(16)
    size = 720_000 // 16
    assert 2 * 16 * 720_000**3 >= 2**63
    samples = []
    for i in range(16):
        chars = [chr(0x20000 + i * size + k) for k in range(size)]
        rng.shuffle(chars)
        output = "".join(chars)
        reference = output[: size // 2] + output[size // 3 :: 7] + "".join(rng.sample(chars, 50))
        samples.append(make_sample(sample_id=f"s{i}", output=output, reference_text=reference))
    sizes = []
    whole = mdqs.scoring._semantic_block

    def counted(part):
        sizes.append(len(part))
        return whole(part)

    monkeypatch.setattr(mdqs.scoring, "_semantic_block", counted)
    column = mdqs.scoring._raw_column(DimensionId.SEMANTIC, Batch(samples), ScoringConfig())
    assert sizes == [1] * 16
    want = [_ref_score_semantic(s) for s in samples]
    assert [v.hex() for v in column] == [v.hex() for v in want]
    assert 0.0 < min(want) and max(want) < 1.0


def test_structure_features_match_the_reference():
    rng = random.Random(15)
    words = ("a", "b", "c", "(", ")", '"', "```", "ß", "\U0001F642")
    seen = set()
    for _ in range(3000):
        count = rng.randrange(9)
        tokens = [rng.choice(words[: rng.randrange(1, len(words) + 1)]) for _ in range(count)]
        text = "".join(rng.choice((" ", "\t", "\n ")) + token for token in tokens)
        policy = StructurePolicy(
            repetition_ngram=rng.randrange(1, 7),
            degeneration_ngram=rng.randrange(1, 7),
            degeneration_min_count=rng.randrange(1, 5),
        )
        new, old = structure_features(text, policy), _ref_structure_features(text, policy)
        assert new == old
        assert new.repetition_ratio.hex() == old.repetition_ratio.hex()
        seen.add((count, policy.repetition_ngram, new.degeneration))
    assert {c for c, _, _ in seen} == set(range(9))
    assert {n for _, n, _ in seen} == set(range(1, 7))
    assert {d for _, _, d in seen} == {True, False}


def test_structure_ngram_sizes_past_the_tokens_match_the_reference():
    """A size past the token count has no n-gram, however large: each text
    keeps the bits of a size of len(tokens) + 1 (10**12 would build 10**12
    slices if the count were not bounded by the tokens)."""
    texts = ("", "a", "a a a a", "a b a b ( ```", " ".join("xy" * 30))
    for text in texts:
        for size in (len(text.split()) + 1, 10**6, 10**12):
            for sizes in ({"repetition_ngram": size}, {"degeneration_ngram": size}):
                for least in (1, 3):
                    policy = StructurePolicy(degeneration_min_count=least, **sizes)
                    new = structure_features(text, policy)
                    old = _ref_structure_features(text, policy)
                    assert new == old
                    assert new.repetition_ratio.hex() == old.repetition_ratio.hex()
                    got, want = score_structure(text, policy), _ref_score_structure(text, policy)
                    assert got.hex() == want.hex()
            both = StructurePolicy(repetition_ngram=size, degeneration_ngram=size)
            assert score_structure(text, both).hex() == _ref_score_structure(text, both).hex()


def test_structure_score_matches_the_reference():
    """score_structure against the record-building oracle, by float.hex, on
    policies where the repetition count bounds degeneration
    (degeneration_ngram >= repetition_ngram) and where it cannot."""
    rng = random.Random(17)
    words = ("a", "b", "c", "(", ")", '"', "```", "ß", "\U0001F642")
    seen = Counter()
    for _ in range(4000):
        tokens = [rng.choice(words[: rng.randrange(1, 5)]) for _ in range(rng.randrange(30))]
        text = "".join(rng.choice((" ", "\t", "\n ")) + token for token in tokens)
        policy = StructurePolicy(
            min_tokens=rng.randrange(12),
            max_tokens=rng.randrange(12, 30),
            length_weight=rng.choice((0.0, 0.3, 1.0)),
            repetition_weight=rng.choice((0.3, 0.7)),
            format_weight=rng.choice((0.2, 0.45)),
            degeneration_weight=rng.choice((0.2, 0.9)),
            repetition_ngram=rng.randrange(1, 6),
            degeneration_ngram=rng.randrange(1, 6),
            degeneration_min_count=rng.randrange(1, 6),
        )
        assert score_structure(text, policy).hex() == _ref_score_structure(text, policy).hex()
        n, d = policy.repetition_ngram, policy.degeneration_ngram
        grams = Counter(zip(*(tokens[i:] for i in range(n))))
        bounded = d >= n and max(grams.values(), default=0) < policy.degeneration_min_count
        seen[d >= n, bounded, _ref_structure_features(text, policy).degeneration] += 1
        seen["min count 1"] += policy.degeneration_min_count == 1 and len(tokens) >= d
    # the bound decides some results; where it does not apply or does not
    # fire, degeneration is counted and both outcomes occur
    assert seen[True, True, False] >= 100
    assert min(seen[False, False, flag] for flag in (True, False)) >= 100, seen
    assert min(seen[True, False, flag] for flag in (True, False)) >= 100, seen
    assert seen["min count 1"] >= 100  # any n-gram degenerates; the bound never fires
    assert score_structure("a b c d e f g h i j k") == _ref_score_structure("a b c d e f g h i j k")


@pytest.mark.parametrize("seed", range(4))
def test_consensus_median_matches_statistics_median(seed):
    # the inline median against statistics.median, bit for bit, on rows of
    # odd and even length with tied values
    rng = random.Random(seed)
    evaluators = [f"e{k}" for k in range(6)]
    samples = [
        make_sample(
            sample_id=f"s{i}",
            evaluator_scores={
                e: rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])
                for e in rng.sample(evaluators, rng.randint(1, 6))
            },
        )
        for i in range(60)
    ]
    batch = Batch(samples)
    rows = [[v for v in row if v == v] for row in batch.normalized_scores().tolist()]
    assert {len(row) % 2 for row in rows} == {0, 1}
    assert any(len(set(row)) < len(row) for row in rows if len(row) % 2 == 0)
    want = [statistics.median(row).hex() for row in rows]
    assert [v.hex() for v in consensus_baselines(batch)["median"]] == want
