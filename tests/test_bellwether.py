import gc
import random
import weakref
from collections import Counter
from functools import partial
from statistics import median

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from planwise import bellwether, planners
from planwise.bellwether import (
    QUALITY_MEASURES,
    BellwetherReport,
    discover,
    exemplar_train,
    f1_score,
    g_score,
    precision_score,
    recall_score,
)
from planwise.datasets import ClassRecord, Community, Project, VersionedDataset, pool_versions
from planwise.planners import XTreePlanner, make_planner
from planwise.tree import build_tree, fit_bins, predict_defective

from conftest import (
    _tie_heavy_project,
    count_calls,
    make_dataset,
    make_record,
    planted_community,
    tie_heavy_community,
)


class TestGScore:
    def test_perfect_prediction(self):
        assert g_score(tp=5, fp=0, tn=5, fn=0) == 1.0

    def test_nothing_found(self):
        assert g_score(tp=0, fp=0, tn=5, fn=5) == 0.0

    def test_half_recall_no_alarms(self):
        assert g_score(tp=5, fp=0, tn=5, fn=5) == pytest.approx(2.0 / 3.0)

    @given(st.integers(0, 50), st.integers(1, 50), st.integers(0, 50), st.integers(0, 50))
    @example(tp=3, fp=1, tn=4, fn=2)  # g = 2 * 0.6 * 0.8 / 1.4
    def test_false_alarms_match_the_closed_forms(self, tp, fp, tn, fn):
        recall = tp / (tp + fn) if tp + fn else 0.0
        specificity = tn / (fp + tn)
        g = 2 * recall * specificity / (recall + specificity) if recall + specificity else 0.0
        assert g_score(tp, fp, tn, fn) == pytest.approx(g)
        assert precision_score(tp, fp, tn, fn) == pytest.approx(tp / (tp + fp))
        assert f1_score(tp, fp, tn, fn) == pytest.approx(2 * tp / (2 * tp + fp + fn))


class TestOtherQualityMeasures:
    def test_closed_forms_on_hand_made_counts(self):
        counts = dict(tp=3, fp=1, tn=4, fn=2)
        assert precision_score(**counts) == 0.75
        assert recall_score(**counts) == 0.6
        assert f1_score(**counts) == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    @pytest.mark.parametrize(
        "measure, counts",
        [
            (precision_score, dict(tp=0, fp=0, tn=4, fn=2)),  # nothing predicted
            (recall_score, dict(tp=0, fp=3, tn=4, fn=0)),  # nothing defective
            (f1_score, dict(tp=0, fp=3, tn=4, fn=2)),  # precision + recall is 0
            (f1_score, dict(tp=0, fp=0, tn=4, fn=0)),  # both denominators are 0
        ],
    )
    def test_a_zero_denominator_scores_zero(self, measure, counts):
        assert measure(**counts) == 0.0

    @given(*[st.integers(0, 50)] * 4)
    def test_f1_is_twice_tp_over_twice_tp_plus_fp_plus_fn(self, tp, fp, tn, fn):
        denominator = 2 * tp + fp + fn
        assert f1_score(tp, fp, tn, fn) == pytest.approx(
            2 * tp / denominator if denominator else 0.0
        )

    def test_every_measure_is_registered_by_name(self):
        assert QUALITY_MEASURES == {"g-score": g_score, "f1": f1_score,
                                    "recall": recall_score, "precision": precision_score}


def latest_rows(project):
    """Each class of ``project`` once, as its record in the latest release
    that holds it, in the order the classes first appear."""
    latest = {}
    for version in reversed(project.versions):
        for rec in version.records:
            latest.setdefault(rec.class_name, rec)
    first = dict.fromkeys(r.class_name for v in project.versions for r in v.records)
    return VersionedDataset(project.name, "pooled", tuple(map(latest.get, first)))


def pool_everything_discover(community, quality_measure="g-score"):
    """The earlier ``discover``, which pooled every project before scoring:
    each source trains on ``latest_rows``, and each target is scored on
    every row of every release."""
    measure = QUALITY_MEASURES[quality_measure]
    projects = {p.name: p for p in community.projects}
    names = sorted(projects)
    rows = {name: [r for v in projects[name].versions for r in v.records] for name in names}
    scores, medians = {}, {}
    for source in names:
        train = latest_rows(projects[source])
        tree = build_tree(train, fit_bins(train))
        row = {}
        for target in names:
            if target == source:
                continue
            records = rows[target]
            if len({r.is_defective() for r in records}) < 2:
                row[target] = None
                continue
            counts = Counter((predict_defective(tree, r), r.is_defective()) for r in records)
            row[target] = measure(counts[True, True], counts[True, False],
                                  counts[False, False], counts[False, True])
        scores[source] = row
        defined = [score for score in row.values() if score is not None]
        if defined:
            medians[source] = float(median(defined))
    return BellwetherReport(
        community=tuple(p.name for p in community.projects),
        scores=scores,
        per_source_median=medians,
        bellwether=min(medians, key=lambda name: (-medians[name], name)),
        quality_measure=quality_measure,
    )


def planted_releases(seed: int, releases: int = 3, turnover: int = 0) -> Community:
    """``planted_community`` drawn ``releases`` times as the releases of each
    project, so every class name recurs in each later release. With
    ``turnover``, each release after the first renames that many of its
    first classes (``a0`` becomes ``a0@1``), so those classes of one release
    die before the next, and fresh ones are added."""
    draws = [planted_community(seed=seed + order, n=60) for order in range(releases)]

    def renamed(records, order):
        return [ClassRecord(f"{r.class_name}@{order}", r.values, r.defects)
                if order and i < turnover else r for i, r in enumerate(records)]

    return Community(tuple(
        Project(name, tuple(
            make_dataset(renamed(draw.get(name).versions[0].records, order), project=name,
                         version=str(order + 1))
            for order, draw in enumerate(draws)
        ))
        for name in ("alpha", "beta", "exemplar")
    ))


# Single-release planted communities over several seeds, planted projects
# whose class names recur in every release or turn over, and the tie-heavy
# community.
COMMUNITIES = {
    **{f"planted-{seed}": partial(planted_community, seed=seed) for seed in (1, 4, 8)},
    **{f"releases-{seed}": partial(planted_releases, seed) for seed in (11, 30)},
    "turnover-11": partial(planted_releases, 11, turnover=20),
    "tie-heavy": tie_heavy_community,
}


class TestDiscover:
    @pytest.mark.parametrize("measure", sorted(QUALITY_MEASURES))
    @pytest.mark.parametrize("name", sorted(COMMUNITIES))
    def test_matches_the_pool_everything_discovery(self, name, measure):
        community = COMMUNITIES[name]()
        expected = pool_everything_discover(community, measure).to_dict()
        assert discover(community, measure).to_dict() == expected

    def test_one_pooled_source_is_alive_at_a_time(self, monkeypatch):
        community = planted_releases(seed=5)
        pooled, alive = [], []

        def spy(project):
            alive.append(sum(ref() is not None for ref in pooled))
            dataset = pool_versions(project)
            pooled.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(bellwether, "pool_versions", spy)
        discover(community)
        assert alive == [0, 0, 0]
        assert all(ref() is None for ref in pooled)

    def test_discovery_leaves_no_garbage_cycle(self):
        community = tie_heavy_community()
        gc.collect()
        gc.disable()
        try:
            discover(community)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_two_projects_pick_the_higher_cross_score(self):
        community = planted_community(seed=1)
        two = Community(community.projects[:1] + community.projects[2:])
        report = discover(two)
        assert set(report.community) == {"alpha", "exemplar"}
        assert report.bellwether == "exemplar"
        assert (
            report.per_source_median["exemplar"]
            > report.per_source_median["alpha"]
        )

    def test_union_distribution_project_is_the_exemplar(self):
        report = discover(planted_community(seed=7))
        assert report.bellwether == "exemplar"
        assert report.scores["exemplar"]["alpha"] > report.scores["alpha"]["beta"]

    def test_project_order_does_not_matter(self):
        community = planted_community(seed=3)
        reversed_community = Community(tuple(reversed(community.projects)))
        a = discover(community)
        b = discover(reversed_community)
        assert a.bellwether == b.bellwether
        assert a.per_source_median == b.per_source_median

    def test_scores_one_record_per_predict_defective_call(self, monkeypatch):
        # Per-record prediction is a contract: traces count these calls, so
        # batching the predictions must fail here. Every row of every
        # release is scored, not only the rows a pool keeps.
        community = planted_releases(seed=2, turnover=20)
        clean = Project(
            "allclean",
            (make_dataset([make_record(f"z{i}") for i in range(25)], project="allclean"),),
        )
        community = Community(community.projects + (clean,))
        calls = count_calls(monkeypatch, bellwether, "predict_defective")
        discover(community)
        rows = {p.name: [r for v in p.versions for r in v.records] for p in community.projects}
        scorable = [
            name for name, records in rows.items()
            if len({r.is_defective() for r in records}) == 2
        ]
        expected = sum(
            len(rows[target]) for source in rows for target in scorable
            if target != source
        )
        assert "allclean" not in scorable
        assert len(calls) == expected

    def test_grows_one_tree_per_project_through_the_planner(self, monkeypatch):
        # Discovery's trees are xtree's trees at its default options.
        community = planted_community(seed=2, n=60)
        grown = count_calls(monkeypatch, XTreePlanner, "grow")
        trees = count_calls(monkeypatch, planners, "build_tree")
        discover(community)
        assert [train for _, train in grown] == [
            pool_versions(community.get(name)) for name in sorted(community.project_names())
        ]
        assert {repr(planner) for planner, _ in grown} == {repr(XTreePlanner())}
        assert len(trees) == len(community.projects)

    def test_labels_each_record_once_as_a_target(self, monkeypatch):
        # Each pooled record is labelled twice: once when its own project's
        # bins are fit, once as a target, however many sources score it.
        community = planted_community(seed=2, n=60)
        calls = count_calls(monkeypatch, ClassRecord, "is_defective")
        discover(community)
        rows = sum(len(pool_versions(p)) for p in community.projects)
        assert len(calls) == 2 * rows

    def test_single_label_target_excluded_from_medians(self):
        community = planted_community(seed=5)
        clean = Project(
            "allclean",
            (make_dataset([make_record(f"z{i}") for i in range(30)], project="allclean"),),
        )
        extended = Community(community.projects + (clean,))
        report = discover(extended)
        assert report.scores["exemplar"]["allclean"] is None
        assert report.bellwether == "exemplar"

    def test_an_all_defective_target_is_unscored(self):
        community = planted_community(seed=5)
        buggy = Project(
            "allbuggy",
            (make_dataset([make_record(f"z{i}", defects=1) for i in range(30)],
                          project="allbuggy"),),
        )
        report = discover(Community(community.projects + (buggy,)))
        assert all(report.scores[source]["allbuggy"] is None
                   for source in ("alpha", "beta", "exemplar"))
        assert report.bellwether == "exemplar"

    def test_removing_the_bellwether_still_returns_a_project(self):
        community = planted_community(seed=9)
        remaining = Community(
            tuple(p for p in community.projects if p.name != "exemplar")
        )
        report = discover(remaining)
        assert report.bellwether in {"alpha", "beta"}

    def test_needs_two_projects(self):
        community = planted_community(seed=1)
        with pytest.raises(ValueError, match="two projects"):
            discover(Community(community.projects[:1]))

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="quality measure"):
            discover(planted_community(seed=1), quality_measure="auc")

    def test_report_serializes(self):
        report = discover(planted_community(seed=2))
        doc = report.to_dict()
        assert doc["bellwether"] == "exemplar"
        assert set(doc["scores"]) == {"alpha", "beta", "exemplar"}


def record_keys(dataset):
    return {(r.class_name, tuple(r.metrics.items()), r.defects) for r in dataset.records}


def four_project_tie_heavy_community():
    return Community((
        *tie_heavy_community().projects,
        _tie_heavy_project("p4", 505, {"rfc": 0.5, "lcom": 0.4, "noc": 0.3, "loc": 0.3}),
    ))


class TestExemplarTrain:
    def test_no_record_of_the_target_reaches_the_training_set(self):
        community = planted_community(seed=7)
        target = community.get("exemplar")
        assert discover(community).bellwether == "exemplar"
        train = exemplar_train(community, target)
        others = Community((community.get("alpha"), community.get("beta")))
        assert train == pool_versions(others.get(discover(others).bellwether))
        assert not record_keys(train) & record_keys(pool_versions(target))

    def test_a_copy_of_the_target_under_another_name_is_left_out(self):
        # A target loaded from its own directory is named by its CSV label,
        # while the community names the same releases by directory.
        community = planted_community(seed=7)
        target = community.get("exemplar")
        renamed = Project("apache-exemplar", target.versions)
        copies = Community((community.get("alpha"), community.get("beta"), renamed))
        assert discover(copies).bellwether == "apache-exemplar"
        train = exemplar_train(copies, Project("exemplar", target.versions))
        assert train.project in {"alpha", "beta"}
        assert not record_keys(train) & record_keys(pool_versions(target))

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "row-shuffled"])
    def test_a_relabelled_copy_of_the_target_is_left_out(self, shuffled):
        # Files with other stems and no project or version cells label the
        # target's releases by their stems; the records alone give them away.
        community = planted_community(seed=7)
        target = community.get("exemplar")

        def rows(release):
            records = list(release.records)
            if shuffled:
                random.Random(7).shuffle(records)
            return tuple(records)

        copy = Project("copy", tuple(
            VersionedDataset("copy", f"r{k}", rows(v)) for k, v in enumerate(target.versions)
        ))
        train = exemplar_train(Community((*community.projects, copy)), target)
        assert train.project in {"alpha", "beta"}
        assert not record_keys(train) & record_keys(pool_versions(target))

    def test_measure_is_passed_to_discovery(self, monkeypatch):
        community = planted_community(seed=7, n=60)
        calls = []

        def spy(candidates, quality_measure="g-score"):
            calls.append((candidates.project_names(), quality_measure))
            return discover(candidates, quality_measure)

        monkeypatch.setattr(bellwether, "discover", spy)
        exemplar_train(community, community.get("alpha"), "f1")
        assert calls == [(["beta", "exemplar"], "f1")]

    @pytest.mark.parametrize(
        "make", [tie_heavy_community, four_project_tie_heavy_community])
    def test_leave_target_out_oracle(self, make):
        # A pair's score depends only on its source and target, so the
        # exemplar for t ranks first in the whole community's scores once
        # t's row and column are deleted: highest median, ties to the first name.
        community = make()
        report = discover(community)
        picks = []
        for target in community.projects:
            medians = {}
            for source, row in report.scores.items():
                defined = [s for t, s in row.items() if t != target.name and s is not None]
                if source != target.name and defined:
                    medians[source] = median(defined)
            expected = min(medians, key=lambda name: (-medians[name], name))
            assert exemplar_train(community, target) == pool_versions(community.get(expected))
            picks.append(expected)
        if make is four_project_tie_heavy_community:
            # Leaving p0 out moves the pick away from the whole community's p2.
            assert report.bellwether == "p2" and picks[0] == "p4"

    @pytest.mark.parametrize("kept", [("alpha",), ()])
    def test_needs_two_other_projects(self, kept):
        community = planted_community(seed=7, n=60)
        target = community.get("exemplar")
        small = Community((target, *map(community.get, kept)))
        with pytest.raises(ValueError) as excinfo:
            exemplar_train(small, target)
        assert str(excinfo.value) == "belltree needs two community projects besides exemplar"


class TestBelltreePlan:
    def test_own_project_data_reproduces_the_local_planner(self):
        community = planted_community(seed=4)
        exemplar = community.get("exemplar")
        local = XTreePlanner(seed=11).fit(pool_versions(exemplar))
        belltree = make_planner("belltree", seed=11).fit(pool_versions(exemplar))
        for record in exemplar.versions[0].records[:20]:
            cross = belltree.plan(record)
            own = local.plan(record)
            assert cross.actions == own.actions
            assert cross.expected_score_drop == own.expected_score_drop
            assert cross.source_planner == "belltree"

    def test_planner_factory_reuses_one_tree(self):
        community = planted_community(seed=4)
        planner = make_planner("belltree", seed=11).fit(
            pool_versions(community.get("exemplar"))
        )
        record = community.get("alpha").versions[0].records[0]
        assert planner.plan(record) == planner.plan(record)

