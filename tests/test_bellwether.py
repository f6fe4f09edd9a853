import gc

import pytest

from planwise import bellwether
from planwise.bellwether import discover, g_score
from planwise.datasets import ClassRecord, Community, Project, pool_versions
from planwise.planners import XTreePlanner, make_planner
from planwise.tree import predict_defective

from conftest import make_dataset, make_record, planted_community, tie_heavy_community


class TestGScore:
    def test_perfect_prediction(self):
        assert g_score(tp=5, fp=0, tn=5, fn=0) == 1.0

    def test_nothing_found(self):
        assert g_score(tp=0, fp=0, tn=5, fn=5) == 0.0

    def test_half_recall_no_alarms(self):
        assert g_score(tp=5, fp=0, tn=5, fn=5) == pytest.approx(2.0 / 3.0)


class TestDiscover:
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
        # batching the predictions must fail here.
        community = planted_community(seed=2, n=60)
        clean = Project(
            "allclean",
            (make_dataset([make_record(f"z{i}") for i in range(25)], project="allclean"),),
        )
        community = Community(community.projects + (clean,))
        calls = []

        def counting(tree, record, *args, **kwargs):
            calls.append(record)
            return predict_defective(tree, record, *args, **kwargs)

        monkeypatch.setattr(bellwether, "predict_defective", counting)
        discover(community)
        pooled = {p.name: pool_versions(p) for p in community.projects}
        scorable = [
            name for name, ds in pooled.items()
            if len({r.is_defective() for r in ds.records}) == 2
        ]
        expected = sum(
            len(pooled[target]) for source in pooled for target in scorable
            if target != source
        )
        assert "allclean" not in scorable
        assert len(calls) == expected

    def test_labels_each_record_once_as_a_target(self, monkeypatch):
        # Each pooled record is labelled twice: once when its own project's
        # bins are fit, once as a target, however many sources score it.
        community = planted_community(seed=2, n=60)
        calls = []
        labelled = ClassRecord.is_defective

        def counting(record):
            calls.append(record)
            return labelled(record)

        monkeypatch.setattr(ClassRecord, "is_defective", counting)
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

