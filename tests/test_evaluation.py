import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milvid.errors import ValidationError
from milvid.evaluation import (
    ConfusionCounts,
    confusion,
    evaluate_bags,
    rates,
    roc_auc,
    score_bags,
)
from milvid.objective import bag_score
from milvid.scorer import init_glorot_normal

from conftest import make_bag, value_scorer


def pairwise_auc(scored):
    """Brute-force oracle: P(pos > neg) with ties counted half."""
    pos = [s for s, y in scored if y == 1]
    neg = [s for s, y in scored if y == -1]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_confusion_basic():
    c = confusion([(0.9, 1), (0.1, -1)], threshold=0.5)
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)


def test_score_equal_to_threshold_is_negative():
    c = confusion([(0.5, 1), (0.5, -1)], threshold=0.5)
    assert (c.tp, c.fn, c.tn, c.fp) == (0, 1, 1, 0)


def test_all_positives_missed():
    c = confusion([(0.1, 1), (0.2, 1), (0.3, 1)], threshold=0.5)
    assert (c.fn, c.tp, c.fp, c.tn) == (3, 0, 0, 0)
    assert c.pos == 3 and c.neg == 0


def test_confusion_rejects_empty_and_bad_labels():
    with pytest.raises(ValidationError):
        confusion([], 0.5)
    with pytest.raises(ValidationError):
        confusion([(0.5, 0)], 0.5)


def test_rates_worked_example():
    r = rates(ConfusionCounts(tp=3, fn=1, fp=2, tn=4))
    assert r.tpr == 0.75
    assert r.fpr == 2 / 6
    assert r.tnr == 4 / 6
    assert r.fnr == 0.25
    assert r.accuracy == 0.7


def test_rates_perfect_classifier():
    r = rates(ConfusionCounts(tp=5, fn=0, fp=0, tn=7))
    assert (r.tpr, r.fpr, r.tnr, r.fnr, r.accuracy) == (1.0, 0.0, 1.0, 0.0, 1.0)


def test_rates_undefined_sides_are_none_not_nan():
    r = rates(ConfusionCounts(tp=0, fn=0, fp=2, tn=3))
    assert r.tpr is None and r.fnr is None
    assert r.fpr == 0.4 and r.tnr == 0.6 and r.accuracy == 0.6
    empty = rates(ConfusionCounts(0, 0, 0, 0))
    assert empty.accuracy is None


def test_complement_identities_hold_exactly():
    gen = np.random.default_rng(42)
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in gen.integers(0, 10_000, size=4))
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        r = rates(c)
        if c.pos > 0:
            assert r.tpr + r.fnr == 1.0
        if c.neg > 0:
            assert r.fpr + r.tnr == 1.0
        if c.pos + c.neg > 0:
            assert r.accuracy == (tp + tn) / (tp + tn + fp + fn)


def test_roc_perfect_separation():
    curve = roc_auc([(0.9, 1), (0.8, 1), (0.2, -1), (0.1, -1)])
    assert curve.auc == 1.0


def test_roc_all_ties_is_half():
    curve = roc_auc([(0.3, 1), (0.3, -1), (0.3, 1), (0.3, -1)])
    assert curve.auc == 0.5


def test_roc_three_of_four_pairs():
    scored = [(0.8, 1), (0.4, 1), (0.6, -1), (0.2, -1)]
    curve = roc_auc(scored)
    assert curve.auc == 0.75
    assert pairwise_auc(scored) == 0.75


def test_roc_curve_shape_invariants(rng):
    scored = [(float(s), int(y)) for s, y in zip(rng.normal(size=50), rng.choice([1, -1], 50))]
    scored += [(0.0, 1), (0.0, -1)]  # force both classes and a tie
    curve = roc_auc(scored)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert curve.points[0][:2] == (0.0, 0.0)
    assert curve.points[-1][:2] == (1.0, 1.0)
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))
    assert curve.points[0][2] == float("inf")


def test_auc_matches_pairwise_oracle_on_random_sets():
    gen = np.random.default_rng(7)
    for _ in range(200):
        n = int(gen.integers(2, 60))
        labels = gen.choice([1, -1], size=n)
        if (labels == 1).all() or (labels == -1).all():
            labels[0] = 1
            labels[-1] = -1
        scores = np.round(gen.normal(size=n), int(gen.integers(0, 3)))  # rounding makes ties
        scored = [(float(s), int(y)) for s, y in zip(scores, labels)]
        assert roc_auc(scored).auc == pytest.approx(pairwise_auc(scored), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(0.5, 5.0), offset=st.floats(-3.0, 3.0))
def test_auc_invariant_under_strictly_increasing_transforms(seed, scale, offset):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(4, 40))
    labels = gen.choice([1, -1], size=n)
    labels[0], labels[-1] = 1, -1
    scores = np.round(gen.normal(size=n), 1)
    base = roc_auc([(float(s), int(y)) for s, y in zip(scores, labels)]).auc
    warped = np.exp(scale * scores) + offset
    assert roc_auc([(float(s), int(y)) for s, y in zip(warped, labels)]).auc == pytest.approx(
        base, abs=1e-12
    )


def loop_roc(scored):
    """Reference sweep, one tie group at a time: (points, auc)."""
    ranked = sorted(scored, key=lambda sy: -sy[0])  # stable, like the argsort it checks
    num_pos = sum(y == 1 for _, y in scored)
    num_neg = len(scored) - num_pos
    points, cum_tp, cum_fp, twice_area, i = [(0.0, 0.0, float("inf"))], 0, 0, 0, 0
    while i < len(ranked):
        j = i
        while j < len(ranked) and ranked[j][0] == ranked[i][0]:
            j += 1
        tp = cum_tp + sum(y == 1 for _, y in ranked[i:j])
        fp = cum_fp + sum(y == -1 for _, y in ranked[i:j])
        twice_area += (fp - cum_fp) * (tp + cum_tp)
        cum_tp, cum_fp = tp, fp
        points.append((cum_fp / num_neg, cum_tp / num_pos, ranked[i][0]))
        i = j
    return tuple(points), twice_area / (2 * num_pos * num_neg)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1e-300, 7.0]), min_size=2)
    | st.lists(st.floats(-1e6, 1e6), min_size=2),
    data=st.data(),
)
def test_roc_and_confusion_equal_the_loop_reference_bitwise(scores, data):
    n = len(scores)
    labels = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    labels[0], labels[1] = 1, -1
    scored = list(zip(scores, labels))
    curve = roc_auc(scored)
    points, auc = loop_roc(scored)
    assert curve.auc == auc
    assert [tuple(map(repr, p)) for p in curve.points] == [tuple(map(repr, p)) for p in points]
    for threshold in (0.0, 0.5, scores[0]):
        c = confusion(scored, threshold)
        assert (c.tp, c.fp, c.tn, c.fn) == (
            sum(s > threshold and y == 1 for s, y in scored),
            sum(s > threshold and y == -1 for s, y in scored),
            sum(s <= threshold and y == -1 for s, y in scored),
            sum(s <= threshold and y == 1 for s, y in scored),
        )


def test_roc_requires_both_classes():
    with pytest.raises(ValidationError):
        roc_auc([(0.5, 1), (0.2, 1)])


def test_evaluate_bags_perfect_dataset():
    # every positive bag has one instance scoring 1.0, all other scores 0.0
    model = value_scorer()
    bags = []
    for i in range(4):
        bags.append(make_bag([0.0, 1.0, 0.0], 1, f"pos-{i}"))
        bags.append(make_bag([0.0, 0.0, 0.0], -1, f"neg-{i}"))
    report = evaluate_bags(model, bags, threshold=0.5)
    assert report.rates.accuracy == 1.0
    assert report.roc.auc == 1.0
    assert report.num_bags == 8


def test_constant_scorer_gives_half_auc():
    model = value_scorer()
    bags = [make_bag([0.7], 1, "p"), make_bag([0.7], -1, "n")]
    report = evaluate_bags(model, bags)
    assert report.roc.auc == 0.5


def test_eval_report_json_schema():
    model = value_scorer()
    bags = [make_bag([0.9], 1, "p"), make_bag([0.1], -1, "n")]
    doc = evaluate_bags(model, bags, threshold=0.5).to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["counts"] == {"tp": 1, "fp": 0, "tn": 1, "fn": 0}
    assert doc["rates"]["tpr"] == 1.0
    assert doc["auc"] == 1.0
    assert doc["threshold"] == 0.5
    import json

    parsed = json.loads(json.dumps(doc))  # all values JSON-representable, no NaN
    assert parsed["rates"]["accuracy"] == 1.0


def test_eval_report_none_rates_serialize_as_null():
    import json

    model = value_scorer()
    bags = [make_bag([0.9], 1, "p"), make_bag([0.1], -1, "n")]
    report = evaluate_bags(model, bags, threshold=0.5)
    text = json.dumps(report.to_json_dict())
    assert "NaN" not in text


def test_score_bags_across_slices_equals_per_bag_scores(rng):
    model = init_glorot_normal((6, 5, 3, 1), seed=2)
    bags = [make_bag(rng.normal(size=(1 + i % 5, 6)), 1 if i % 3 else -1, f"b{i}")
            for i in range(37)]  # three slices of bags, the last one partial
    scored = score_bags(model, bags)
    assert [y for _, y in scored] == [bag.label for bag in bags]
    reference = [bag_score(model, bag)[0] for bag in bags]
    assert np.max(np.abs(np.array([s for s, _ in scored]) - reference)) <= 1e-15
    assert score_bags(model, []) == []
