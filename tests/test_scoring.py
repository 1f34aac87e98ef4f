"""Dimension scorers: priors, structure heuristics, semantic similarity,
alignment columns, agreement, and batch normalization."""

import dataclasses
import math
import random
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
from mdqs.model import CANONICAL_DIMENSIONS, DimensionId, WeightConfig
from mdqs.scoring import (
    PriorTable,
    ScoringConfig,
    StructurePolicy,
    column_value,
    normalize_batch,
    normalize_evaluator_scores,
    score_agreement,
    score_all,
    score_semantic,
    score_structure,
    structure_features,
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
    return score_all([sample], ScoringConfig(weights=weights, semantic_column=column))


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
    assert {s.dimension_scores[DimensionId.SEMANTIC] for s in scored} == {0.5}


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
    ids, table = normalize_evaluator_scores(samples)
    assert ids == ["j", "k"]
    assert table[:, 0].tolist() == [0.0, 1.0, 0.5]
    assert table[:, 1].tolist() == pytest.approx([0.0, 1.0, 0.5])


def test_normalize_evaluator_scores_partial_coverage():
    samples = [
        make_sample(sample_id="s0", evaluator_scores={"j": 1.0}),
        make_sample(sample_id="s1", evaluator_scores={"j": 3.0, "k": 5.0}),
        make_sample(sample_id="s2", evaluator_scores={"k": 9.0}),
    ]
    ids, table = normalize_evaluator_scores(samples)
    assert ids == ["j", "k"]
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
        normalize_evaluator_scores(samples)
    agreement = ScoringConfig(weights=WeightConfig("a", {DimensionId.AGREEMENT: 1.0}))
    with pytest.raises(SchemaError, match="duplicate sample_id 's1'"):
        score_all(samples, agreement)
    ids, table = normalize_evaluator_scores(samples[:2])
    assert ids == ["j", "k"] and table[0].tolist() == [0.0, 0.0]  # s1's row


# --------------------------------------------------------------- score_all

def _full_config(**overrides):
    cfg = ScoringConfig(
        model_priors=PriorTable("model_rating", {"m1": 1000.0, "m2": 1200.0}),
        cost_priors=PriorTable("cost_efficiency", {"m1": 1.0, "m2": 0.5}),
        alignment_column="judge",
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


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
    return samples


def test_score_all_full_pipeline():
    scored, _ = score_all(_batch(), _full_config())
    for s in scored:
        vec = s.dimension_scores
        assert vec.keys() == frozenset(CANONICAL_DIMENSIONS)
        for d in CANONICAL_DIMENSIONS:
            assert 0.0 <= vec[d] <= 1.0


def test_score_all_normalizes_each_dimension_over_batch():
    scored, _ = score_all(_batch(), _full_config())
    for d in CANONICAL_DIMENSIONS:
        col = [s.dimension_scores[d] for s in scored]
        if max(col) != min(col):
            assert min(col) == 0.0
            assert max(col) == 1.0


def test_score_all_idempotent():
    once, _ = score_all(_batch(), _full_config())
    twice, _ = score_all(once, _full_config())
    for a, b in zip(once, twice):
        for d in CANONICAL_DIMENSIONS:
            assert a.dimension_scores[d] == b.dimension_scores[d]


def test_score_all_empty_batch():
    assert score_all([], _full_config()) == ([], {})


def test_score_all_frozen_stats_round_trip():
    scored, stats = score_all(_batch(), _full_config())
    frozen, _ = score_all(_batch(), _full_config(frozen_stats=stats))
    for a, b in zip(scored, frozen):
        for d in CANONICAL_DIMENSIONS:
            assert a.dimension_scores[d] == pytest.approx(b.dimension_scores[d], abs=1e-12)


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
    scored, _ = score_all(_batch() + [outlier], _full_config(frozen_stats=stats))
    vec = scored[-1].dimension_scores
    for d in CANONICAL_DIMENSIONS:
        assert 0.0 <= vec[d] <= 1.0


def test_score_all_inactive_dimensions_skipped():
    cfg = ScoringConfig(weights=WeightConfig("structure_only", {DimensionId.STRUCTURE: 1.0}))
    scored, raw_ranges = score_all(_batch(), cfg)
    for s in scored:
        assert s.dimension_scores.keys() == frozenset({DimensionId.STRUCTURE})
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
    assert len(score_all([good], _full_config())[0]) == 1

    def unreached(sample):
        raise AssertionError("a column was built before every sample was checked")

    monkeypatch.setattr(mdqs.scoring, "score_semantic", unreached)
    one_score = make_sample(sample_id="bad3", reference_text="ref", evaluator_scores={"judge": 0.5})
    with pytest.raises(TooFewEvaluators):
        score_all([good, one_score], _full_config())
    no_ref = make_sample(sample_id="bad", evaluator_scores={"judge": 0.5})
    with pytest.raises(MissingReferenceText):
        score_all([good, no_ref], _full_config())
    no_col = make_sample(sample_id="bad2", reference_text="ref")
    with pytest.raises(MissingColumn):
        score_all([good, no_col], _full_config())


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
# were before the code-point arrays, kept verbatim as the oracle the array
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


def test_trigram_codes_count_the_counter_trigrams():
    rng = random.Random(14)
    K = mdqs.scoring._CODE_POINTS
    texts = [text for pair in EDGE_PAIRS for text in pair]
    for text in texts + [_random_text(rng) for _ in range(500)]:
        grams, counts = mdqs.scoring._trigram_counts(text)
        decoded = {
            chr(g // (K * K)) + chr(g // K % K) + chr(g % K): int(c)
            for g, c in zip(grams.tolist(), counts)
        }
        assert decoded == _ref_trigram_counts(text)
        assert list(grams) == sorted(set(grams.tolist()))


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
        for n in range(1, 7):
            assert mdqs.scoring._ngrams(tokens, n) == _ref_ngrams(tokens, n)
        seen.add((count, policy.repetition_ngram, new.degeneration))
    assert {c for c, _, _ in seen} == set(range(9))
    assert {n for _, n, _ in seen} == set(range(1, 7))
    assert {d for _, _, d in seen} == {True, False}
