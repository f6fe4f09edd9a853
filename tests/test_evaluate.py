import math
import statistics
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planwise import evaluate, planners
from planwise.datasets import (
    DECREASE, METRICS, NO_CHANGE, ClassRecord, Project, VersionedDataset, diff_versions,
)
from planwise.evaluate import (
    BUCKET_MIDPOINTS,
    N_BUCKETS,
    ChangesSummary,
    CurvePoint,
    KTestResult,
    bucket_index,
    evaluate_windows,
    ktest,
    overlap,
)
from planwise.planners import (
    Action, Plan, PlannerBase, XTreePlanner, make_planner,
)

from conftest import (
    changes_count, count_calls, make_dataset, make_project, make_record, tie_heavy_history,
)

FOUR = ("xtree", "alves", "shatnawi", "oliveira")  # the planners that fit each window


class TestOverlap:
    def test_published_nine_metric_example(self):
        metrics = ["dit", "noc", "cbo", "rfc", "fout", "wmc", "nom", "loc", "lcom"]
        planner = dict(zip(metrics, [".", ".", ".", "+", ".", "+", "+", "+", "+"]))
        developer = dict(zip(metrics, [".", ".", "-", "+", "-", "+", "+", "+", "+"]))
        assert overlap(developer, planner) == pytest.approx(77.77, abs=0.01)

    def test_identical_vectors_give_full_overlap(self):
        vec = {m: "+" for m in METRICS}
        assert overlap(vec, dict(vec)) == 100.0

    def test_total_disagreement_gives_zero(self):
        d = {m: "+" for m in METRICS}
        p = {m: "-" for m in METRICS}
        assert overlap(d, p) == 0.0

    def test_different_universes_rejected(self):
        with pytest.raises(ValueError, match="universes"):
            overlap({"loc": "+"}, {"wmc": "+"})

    @given(
        st.lists(st.sampled_from("+-."), min_size=20, max_size=20),
        st.lists(st.sampled_from("+-."), min_size=20, max_size=20),
    )
    @settings(max_examples=100)
    def test_symmetric_bounded_and_discriminating(self, a, b):
        d = dict(zip(METRICS, a))
        p = dict(zip(METRICS, b))
        x = overlap(d, p)
        assert 0.0 <= x <= 100.0
        assert x == overlap(p, d)
        assert (x == 100.0) == (d == p)

    @given(
        st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=25,
                 unique=True).flatmap(lambda keys: st.tuples(
                     st.just(keys),
                     st.permutations(keys),
                     st.lists(st.sampled_from("+-."), min_size=len(keys),
                              max_size=len(keys)),
                     st.lists(st.sampled_from("+-."), min_size=len(keys),
                              max_size=len(keys)),
                 ))
    )
    @settings(max_examples=200)
    def test_matches_the_per_key_count_in_any_key_order(self, drawn):
        keys, shuffled, a, b = drawn
        d = dict(zip(keys, a))
        p = {k: dict(zip(keys, b))[k] for k in shuffled}
        agree = sum(1 for m in d if d[m] == p[m])
        assert overlap(d, p) == 100.0 * agree / len(d)


class TestBuckets:
    def test_decile_edges(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(9.99) == 0
        assert bucket_index(45.0) == 4
        assert bucket_index(80.0) == 8
        assert bucket_index(100.0) == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bucket_index(101.0)


class ReduceLocStub(PlannerBase):
    """Fixed plan: decrease loc, leave everything else alone."""

    name = "stub"

    def fit(self, train):
        return self

    def plan(self, record):
        actions = {m: Action() for m in METRICS}
        actions["loc"] = Action(direction=DECREASE, target_range=(0.0, 50.0))
        return Plan(record.class_name, actions, self.name)


def hand_project():
    """Three releases, five classes, every overlap and delta set by hand.

    Against the stub planner (loc down, rest unchanged), the middle-release
    classes land at overlaps 100, 55, 80, 45; C5 disappears before the
    validation release and C6 appears in it, so both are excluded.
    """
    changed = {
        0: (),
        4: ("wmc", "dit", "noc", "cbo"),
        9: ("wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm"),
        10: ("wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3"),
    }
    v1 = make_dataset(
        [make_record("C1", defects=1, loc=90.0), make_record("C2", loc=90.0)],
        version="1",
    )
    v2 = make_dataset(
        [
            make_record("C1", defects=4, loc=100.0),
            make_record("C2", defects=2, loc=100.0),
            make_record("C3", defects=6, loc=100.0),
            make_record("C4", defects=1, loc=100.0),
            make_record("C5", defects=9, loc=100.0),
        ],
        version="2",
    )
    v3 = make_dataset(
        [
            # C1: only loc moved; overlap 20/20 = 100; delta +3 reduced.
            make_record("C1", defects=1, loc=80.0),
            # C2: loc down plus 9 metrics up; overlap 11/20 = 55; delta -3.
            make_record(
                "C2", defects=5, loc=80.0, **{m: 2.0 for m in changed[9]}
            ),
            # C3: loc down plus 4 metrics up; overlap 16/20 = 80; delta +4.
            make_record(
                "C3", defects=2, loc=80.0, **{m: 2.0 for m in changed[4]}
            ),
            # C4: loc untouched, 10 metrics up; overlap 9/20 = 45; delta 0.
            make_record(
                "C4", defects=1, loc=100.0, **{m: 2.0 for m in changed[10]}
            ),
            # C6 is new and therefore excluded from matching.
            make_record("C6", defects=7, loc=10.0),
        ],
        version="3",
    )
    return make_project([v1, v2, v3], name="hand")


# Frozen hand table. Matched classes C1..C4 carry 13 defects in release 2.
# Reduced curve: 4 at midpoint 85, 3 at 95. The 10-point uniform grid takes
# four Simpson panels and one trapezoid tail:
#   reduced area = (10/3)*(0 + 4*0 + 4) + 10*(4+3)/2 = 145/3
#   increased area = (10/3)*(0 + 4*3 + 0) = 40
# AUPEC normalizes by 13 defects * 90 span:
#   reduced  = 100 * (145/3) / 1170 = 4.131054131054131
#   increased = 100 * 40 / 1170 = 3.4188034188034188
EXPECTED_REDUCED = (0, 0, 0, 0, 0, 0, 0, 0, 4, 3)
EXPECTED_INCREASED = (0, 0, 0, 0, 0, 3, 0, 0, 0, 0)
EXPECTED_CLASSES = (0, 0, 0, 0, 1, 1, 0, 0, 1, 1)
EXPECTED_AUPEC_REDUCED = 4.131054131054131
EXPECTED_AUPEC_INCREASED = 3.4188034188034188


class TestKTest:
    def test_hand_computed_curve_and_areas(self):
        result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
        assert result.matched_classes == 4
        assert result.matched_defects == 13
        assert tuple(p.overlap_bucket for p in result.curve) == BUCKET_MIDPOINTS
        assert tuple(p.defects_reduced for p in result.curve) == EXPECTED_REDUCED
        assert tuple(p.defects_increased for p in result.curve) == EXPECTED_INCREASED
        assert tuple(p.classes for p in result.curve) == EXPECTED_CLASSES
        assert result.aupec_reduced == pytest.approx(
            EXPECTED_AUPEC_REDUCED, abs=1e-9
        )
        assert result.aupec_increased == pytest.approx(
            EXPECTED_AUPEC_INCREASED, abs=1e-9
        )
        assert result.changes_per_plan.median == 1.0
        assert result.changes_per_plan.plans == 5

    def test_hand_plans_changes_and_followed_plans(self):
        # Every plan moves loc. C1, C2 and C3 moved it down; C4 left it alone
        # and C5 is gone from release 3.
        result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
        assert result.plan_changes == (1, 1, 1, 1, 1)
        # C1 lost 3 defects and C3 4; C2 gained 3.
        assert result.followed == (3, 7, 3)

    def test_rerun_is_identical(self):
        assert ktest(hand_project(), 0, 1, 2, ReduceLocStub()) == ktest(
            hand_project(), 0, 1, 2, ReduceLocStub()
        )

    def test_no_shared_classes_yields_absent_areas(self):
        project = hand_project()
        v3 = make_dataset([make_record("Z1", defects=2)], version="3")
        renamed = make_project([project.versions[0], project.versions[1], v3])
        result = ktest(renamed, 0, 1, 2, ReduceLocStub())
        assert result.curve == ()
        assert result.aupec_reduced is None
        assert result.aupec_increased is None
        assert result.matched_classes == 0

    def test_scaling_defects_scales_curve_but_not_aupec(self):
        base = ktest(hand_project(), 0, 1, 2, ReduceLocStub())

        def scaled(ds, factor=3):
            recs = [
                type(r)(r.class_name, r.values, r.defects * factor)
                for r in ds.records
            ]
            return make_dataset(recs, version=ds.version)

        project = hand_project()
        tripled = make_project([scaled(v) for v in project.versions])
        result = ktest(tripled, 0, 1, 2, ReduceLocStub())
        assert tuple(p.defects_reduced for p in result.curve) == tuple(
            3 * h for h in EXPECTED_REDUCED
        )
        assert result.aupec_reduced == pytest.approx(base.aupec_reduced)
        assert result.aupec_increased == pytest.approx(base.aupec_increased)

    def test_window_indices_must_be_ordered(self):
        # Reversed, past the end, i == j, j == k and k == len(versions).
        for i, j, k in ((1, 0, 2), (0, 1, 5), (0, 0, 2), (0, 1, 1), (0, 1, 3)):
            with pytest.raises(ValueError, match="need three ordered releases"):
                ktest(hand_project(), i, j, k, ReduceLocStub())

    def test_result_serializes(self):
        result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
        doc = result.to_dict()
        assert doc["versions"] == {"train": "1", "test": "2", "validation": "3"}
        assert len(doc["curve"]) == 10
        summary = result.changes_per_plan
        # The document the result writes, key by key, in the field order.
        assert list(doc.items()) == [
            ("project", "hand"),
            ("versions", {"train": "1", "test": "2", "validation": "3"}),
            ("planner", "stub"),
            ("curve", [
                {"overlap_bucket": p.overlap_bucket, "defects_reduced": p.defects_reduced,
                 "defects_increased": p.defects_increased, "classes": p.classes}
                for p in result.curve
            ]),
            ("aupec_reduced", result.aupec_reduced),
            ("aupec_increased", result.aupec_increased),
            ("changes_per_plan", {"plans": summary.plans, "min": summary.min,
                                  "median": summary.median, "mean": summary.mean,
                                  "max": summary.max}),
            ("matched_classes", result.matched_classes),
            ("matched_defects", result.matched_defects),
        ]

    def test_the_document_keeps_nine_keys_without_the_plan_tallies(self):
        # test_result_serializes pins the nine keys in order.
        doc = ktest(hand_project(), 0, 1, 2, ReduceLocStub()).to_dict()
        assert [f.name for f in fields(KTestResult)] == [*doc, "plan_changes", "followed"]

    def test_a_result_cannot_change_after_ktest_returns_it(self):
        result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
        with pytest.raises(TypeError):
            result.versions["train"] = "x"
        assert type(result.curve) is tuple

    def test_a_result_document_shares_nothing_with_the_result(self):
        result = ktest(hand_project(), 0, 1, 2, ReduceLocStub())
        doc = result.to_dict()
        doc["versions"]["train"] = "x"
        doc["curve"].clear()
        assert result.versions["train"] == "1" and len(result.curve) == 10

    def test_changes_summary_fields_are_its_json_keys(self):
        summary = ChangesSummary.from_counts([3, 0, 1, 1])
        assert summary == ChangesSummary(plans=4, min=0, median=1.0, mean=1.25, max=3)
        assert asdict(summary) == {"plans": 4, "min": 0, "median": 1.0, "mean": 1.25, "max": 3}
        assert ChangesSummary.from_counts([]) == ChangesSummary(0, 0, 0.0, 0.0, 0)
        assert not hasattr(summary, "to_dict")


def test_a_project_and_its_releases_hold_data_only():
    # Evaluation keeps each window's developer diff and planners keep the
    # logistic screen, so scoring leaves a project as a fresh one.
    assert [f.name for f in fields(VersionedDataset)] == ["project", "version", "records"]
    assert [f.name for f in fields(Project)] == ["name", "versions"]
    project = hand_project()
    evaluate_windows(project, [(ReduceLocStub(), None), (make_planner("alves"), None)])
    assert project == hand_project() and repr(project) == repr(hand_project())


class TestWindows:
    def test_five_releases_make_three_windows(self):
        versions = [
            make_dataset(
                [make_record("C1", defects=i, loc=50.0 + i)],
                version=str(i + 1),
            )
            for i in range(5)
        ]
        project = make_project(versions, name="five")
        [results] = evaluate_windows(project, [(ReduceLocStub(), None)])
        assert len(results) == 3
        assert [r.versions for r in results] == [
            {"train": "1", "test": "2", "validation": "3"},
            {"train": "2", "test": "3", "validation": "4"},
            {"train": "3", "test": "4", "validation": "5"},
        ]

    def test_each_window_fits_its_first_release(self):
        fits = []

        class Recording(ReduceLocStub):
            def fit(self, train):
                fits.append(train.version)
                return self

        project = make_project(
            [make_dataset([make_record("C1")], version=str(i + 1)) for i in range(5)]
        )
        evaluate_windows(project, [(Recording(), None)])
        assert fits == ["1", "2", "3"]

    def test_ktest_only_scores_a_fitted_planner(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ktest(hand_project(), 0, 1, 2, XTreePlanner())

    def test_xtree_plans_each_planned_release_row_once(self, monkeypatch):
        # One plan call per row of release j in every window: traces count
        # these calls, so batching the plans must fail here.
        rng = np.random.default_rng(4)
        versions = []
        for i, size in enumerate((30, 40, 50, 60)):
            records = []
            for c in range(size):
                wmc = float(rng.integers(0, 40))
                records.append(make_record(
                    f"C{c}", defects=int(wmc > 20), wmc=wmc,
                    loc=float(rng.integers(10, 500)),
                ))
            versions.append(make_dataset(records, version=str(i + 1)))
        project = make_project(versions)
        calls = count_calls(monkeypatch, XTreePlanner, "plan")
        evaluate_windows(project, [(XTreePlanner(min_leaf=2), None)])
        assert len(calls) == sum(len(v) for v in versions[1:-1]) == 90

    def test_external_train_is_fitted_once(self, monkeypatch):
        # Belltree hands every window the same exemplar data: one fit must
        # give what a refit per window gives, with one ktest per window. A
        # local partner in the same call still fits each window's first release.
        rng = np.random.default_rng(9)

        def release(version, size=60, prefix="C"):
            records = []
            for c in range(size):
                wmc = float(rng.integers(0, 40))
                records.append(make_record(
                    f"{prefix}{c}", defects=int(wmc > 20) + int(rng.integers(0, 2)),
                    wmc=wmc, loc=float(rng.integers(10, 500)),
                    cbo=float(rng.integers(0, 20)),
                ))
            return make_dataset(records, version=version)

        project = make_project([release(str(i + 1)) for i in range(5)])
        train = release("x", size=200, prefix="X")
        refit = [
            ktest(project, s, s + 1, s + 2, XTreePlanner(min_leaf=5).fit(train))
            for s in range(3)
        ]
        alone = evaluate_windows(project, [(XTreePlanner(min_leaf=5), None)])
        fits = count_calls(monkeypatch, XTreePlanner, "fit")
        windows = count_calls(monkeypatch, evaluate, "ktest")
        returned, counted = [], evaluate.ktest
        monkeypatch.setattr(evaluate, "ktest", lambda *args, **kwargs: returned.append(
            counted(*args, **kwargs)) or returned[-1])
        external, local = XTreePlanner(min_leaf=5), XTreePlanner(min_leaf=5)
        results, locals_ = evaluate_windows(project, [(external, train), (local, None)])
        assert [data for planner, data in fits if planner is external] == [train]
        assert [data for planner, data in fits if planner is local] == list(project.versions[:3])
        assert len(windows) == 6
        assert [r.to_dict() for r in locals_] == [r.to_dict() for r in alone[0]]
        # The windows name the fitted set; a direct ktest names release i,
        # and the results it returned inside evaluate_windows still do.
        assert [r.versions for r in results] == [
            {"train": "proj-x", "test": str(s + 2), "validation": str(s + 3)} for s in range(3)
        ]
        assert [r.versions["train"] for r in returned[::2]] == ["1", "2", "3"]
        assert [r.versions["train"] for r in refit] == ["1", "2", "3"]
        renamed = [replace(r, versions=dict(r.versions, train="proj-x")) for r in refit]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in renamed]
        assert any(r.changes_per_plan.max > 0 for r in results)

    def test_a_planner_refitted_per_window_plans_as_fresh_ones(self):
        # Each fit starts a fresh memo of moves, so no window plans with a
        # move of the previous window's tree.
        project = tie_heavy_history()
        fresh = [
            ktest(project, s, s + 1, s + 2, make_planner("xtree").fit(project.versions[s]))
            for s in evaluate.windows(project)
        ]
        [results] = evaluate_windows(project, [(make_planner("xtree"), None)])
        assert len(results) == 2
        assert [repr(r.to_dict()) for r in results] == [repr(r.to_dict()) for r in fresh]
        assert all(r.changes_per_plan.max > 0 for r in results)

    def test_alves_and_shatnawi_share_one_screen_per_release(self, monkeypatch):
        fits = count_calls(monkeypatch, planners, "fit_univariate_logistic")
        project = tie_heavy_history()
        evaluate_windows(project, [(make_planner(name), None) for name in FOUR])
        assert len(fits) == len(METRICS) * len(evaluate.windows(project)) == 40

    def test_every_planner_scores_one_developer_diff_per_window(self, monkeypatch):
        diffs = count_calls(monkeypatch, evaluate, "diff_versions")
        project = tie_heavy_history()
        shared = evaluate_windows(project, [(make_planner(name), None) for name in FOUR])
        assert [args[:2] for args in diffs] == [project.versions[1:3], project.versions[2:4]]
        for name, results in zip(FOUR, shared):
            [alone] = evaluate_windows(tie_heavy_history(), [(make_planner(name), None)])
            assert [r.to_dict() for r in results] == [r.to_dict() for r in alone], name

    def test_release_k_is_indexed_once_per_window(self, monkeypatch):
        indexed = count_calls(monkeypatch, VersionedDataset, "by_name")
        project = tie_heavy_history()
        evaluate_windows(project, [(make_planner(name), None) for name in FOUR])
        # Per window: diff_versions' index of release k, and the table's.
        v2, v3 = project.versions[2:4]
        assert [id(d) for (d,) in indexed] == [id(v2), id(v2), id(v3), id(v3)]

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("external", [False, True])
    def test_bad_epsilon_fails_before_any_fit(self, monkeypatch, epsilon, external):
        project = tie_heavy_history()
        train = project.versions[0] if external else None
        diffs = count_calls(monkeypatch, evaluate, "diff_versions")
        for name, rule in (("xtree", "fit_bins"), ("alves", "alves_thresholds")):
            fits = count_calls(monkeypatch, planners, rule)
            with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
                evaluate_windows(project, [(make_planner(name), train)], epsilon)
            assert fits == [], name
        assert diffs == []

    def test_too_few_releases_explains_the_requirement(self):
        project = make_project(
            [
                make_dataset([make_record("C1")], version="1"),
                make_dataset([make_record("C1")], version="2"),
            ]
        )
        with pytest.raises(ValueError, match="at least 3"):
            evaluate_windows(project, [(ReduceLocStub(), None)])


def dense_ktest(project, i, j, k, planner, epsilon=0.0):
    """Reference ``ktest``: every plan's full direction vector, its set
    overlap with the developer's moves, and separate passes for its changes
    and for whether the developers made every planned move."""
    version_j, version_k = project.versions[j], project.versions[k]
    plans = {rec.class_name: planner.plan(rec) for rec in version_j.records}
    developer = diff_versions(version_j, version_k, epsilon)
    k_records = version_k.by_name()
    reduced, increased, classes = [0] * N_BUCKETS, [0] * N_BUCKETS, [0] * N_BUCKETS
    matched_classes = matched_defects = 0
    followed_deltas = []  # the defect deltas of classes that made every planned move
    for rec in version_j.records:
        actions = developer.get(rec.class_name)
        if actions is None:
            continue
        directions = {m: a.direction for m, a in plans[rec.class_name].actions.items()}
        bucket = bucket_index(overlap(actions, directions))
        delta = rec.defects - k_records[rec.class_name].defects
        reduced[bucket] += max(0, delta)
        increased[bucket] += max(0, -delta)
        classes[bucket] += 1
        matched_classes += 1
        matched_defects += rec.defects
        planned = {m: d for m, d in directions.items() if d != NO_CHANGE}
        if planned and planned.items() <= actions.items():
            followed_deltas.append(delta)
    if matched_classes == 0:
        curve, aupec_reduced, aupec_increased = [], None, None
    else:
        curve = [
            CurvePoint(mid, reduced[b], increased[b], classes[b])
            for b, mid in enumerate(BUCKET_MIDPOINTS)
        ]
        aupec_reduced = evaluate._aupec(reduced, matched_defects)
        aupec_increased = evaluate._aupec(increased, matched_defects)
    counts = [changes_count(plans[rec.class_name]) for rec in version_j.records]
    summary = ChangesSummary(
        len(counts), min(counts), float(statistics.median(counts)),
        float(statistics.mean(counts)), max(counts),
    )
    versions = {"train": project.versions[i].version, "test": version_j.version,
                "validation": version_k.version}
    return KTestResult(
        project.name, versions, planner.name, curve, aupec_reduced, aupec_increased,
        summary, matched_classes, matched_defects, tuple(counts),
        (len(followed_deltas), sum(max(0, d) for d in followed_deltas),
         sum(max(0, -d) for d in followed_deltas)),
    )


class TablePlanner(PlannerBase):
    """Plans each class from a fixed table and records the order it is asked."""

    name = "table"

    def __init__(self, table):
        self.table = table
        self.asked = []

    def fit(self, train):
        return self

    def plan(self, record):
        self.asked.append(record.class_name)
        return Plan(record.class_name, dict(zip(METRICS, self.table[record.class_name])),
                    self.name)


# Values around 1.0 move or stay depending on epsilon; negatives swap bounds.
METRIC_VALUES = st.lists(
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 1.05, 2.0]),
    min_size=len(METRICS), max_size=len(METRICS),
)
# Mostly no-change entries, including ones that carry a target range.
PLAN_ACTIONS = st.lists(
    st.sampled_from([
        Action(), Action(), Action(), Action(".", target_range=(0.0, 1.0)),
        Action("+"), Action("-"), Action("-", target_range=(0.0, 1.0)),
    ]),
    min_size=len(METRICS), max_size=len(METRICS),
)
# One class of release j: its metrics, defects, plan, and its release-k
# metrics and defects, or None when it is gone from release k.
WINDOW_CLASS = st.tuples(
    METRIC_VALUES, st.integers(0, 3), PLAN_ACTIONS,
    st.none() | st.tuples(METRIC_VALUES, st.integers(0, 3)),
)
NO_MATCH = [([1.0] * len(METRICS), 2, [Action("+")] * len(METRICS), None)]


class TestKTestOracle:
    @given(st.lists(WINDOW_CLASS, min_size=1, max_size=6),
           st.sampled_from([0.0, 0.04, 0.1, 1.5]))
    @example(NO_MATCH, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_per_plan_overlap(self, drawn, epsilon):
        def record(name, values, defects):
            return ClassRecord(name, tuple(values), defects)

        names = [f"C{n}" for n in range(len(drawn))]
        version_j = [record(n, j, d) for n, (j, d, _, _) in zip(names, drawn)]
        version_k = [record(n, *k) for n, (_, _, _, k) in zip(names, drawn) if k]
        version_k.append(make_record("new_in_k", defects=1))
        project = make_project([
            make_dataset(version_j[:1], version="1"),
            make_dataset(version_j, version="2"),
            make_dataset(version_k, version="3"),
        ])
        table = {n: plan for n, (_, _, plan, _) in zip(names, drawn)}
        expected = dense_ktest(project, 0, 1, 2, TablePlanner(table), epsilon)
        # A direct call, then one handed the window's table as evaluate_windows does.
        matched = evaluate._matched_classes(*project.versions[1:], epsilon)
        for options in ({}, {"_matched": matched}):
            planner = TablePlanner(table)
            assert ktest(project, 0, 1, 2, planner, epsilon, **options) == expected
            assert planner.asked == names

    @given(st.lists(st.integers(0, 20) | st.integers(-2**70, 2**70), min_size=1))
    @example([2**53 + 1, 2**53 + 2, 1])
    @settings(max_examples=300)
    def test_mean_changes_equals_the_statistics_mean(self, counts):
        mean = ChangesSummary.from_counts(counts).mean
        assert mean.hex() == float(statistics.mean(counts)).hex()
