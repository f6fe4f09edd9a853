import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planwise
from planwise import planners
from planwise.bellwether import discover
from planwise.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, build_parser, main
from planwise.datasets import (
    METRICS,
    Community,
    Project,
    load_community,
    load_csv,
    load_project,
    pool_versions,
)
from planwise.evaluate import evaluate_windows
from planwise.planners import PLANNERS, make_planner
from planwise.tree import build_tree, tree_to_dict

from conftest import (
    changes_count,
    count_calls,
    make_dataset,
    make_record,
    tie_heavy_community,
    tie_heavy_history,
    write_csv,
)


def toy_version(version, order, n=60, seed=0):
    rng = np.random.default_rng(seed + order)
    records = []
    for i in range(n):
        defective = int(rng.random() < 0.4)
        records.append(
            make_record(
                f"cls{i}",
                defects=defective * int(rng.integers(1, 4)),
                loc=float(rng.uniform(20, 200) + 150 * defective),
                rfc=float(rng.uniform(0, 40) + 25 * defective),
                wmc=float(rng.uniform(1, 20)),
            )
        )
    return make_dataset(records, project="toy", version=version)


@pytest.fixture
def toy_project_dir(tmp_path):
    root = tmp_path / "toy"
    root.mkdir()
    for order, version in enumerate(("1.0", "1.1", "1.2")):
        write_csv(toy_version(version, order), root / f"toy-{version}.csv")
    return root


@pytest.fixture
def toy_community_dir(tmp_path):
    root = tmp_path / "community"
    for name, seed in (("apple", 1), ("berry", 2)):
        sub = root / name
        sub.mkdir(parents=True)
        for order, version in enumerate(("1", "2")):
            ds = toy_version(version, order, seed=seed)
            ds = make_dataset(list(ds.records), project=name, version=version)
            write_csv(ds, sub / f"{name}-{version}.csv")
    return root


class TestPlanCommand:
    def test_writes_one_plan_per_test_class(self, toy_project_dir, tmp_path):
        out = tmp_path / "plans.json"
        code = main(
            [
                "plan",
                "--planner", "xtree",
                "--train", str(toy_project_dir / "toy-1.0.csv"),
                "--test", str(toy_project_dir / "toy-1.1.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert len(doc["plans"]) == 60
        first = doc["plans"][0]
        assert set(first["actions"]) == set(METRICS)
        assert "refactorings" in first

    def test_reruns_are_byte_identical(self, toy_project_dir, tmp_path):
        args = [
            "plan",
            "--planner", "xtree",
            "--train", str(toy_project_dir / "toy-1.0.csv"),
            "--test", str(toy_project_dir / "toy-1.1.csv"),
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_format(self, toy_project_dir, tmp_path):
        out = tmp_path / "plans.csv"
        code = main(
            [
                "plan",
                "--planner", "shatnawi",
                "--train", str(toy_project_dir / "toy-1.0.csv"),
                "--test", str(toy_project_dir / "toy-1.1.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("class_name,wmc,")
        assert len(lines) == 61

    # A plan CSV beside its inputs was read back as a release: the next
    # evaluate of that directory failed on the plan's missing 'name' column.
    # Each id ends in the format that its --out's name selects.
    @pytest.mark.parametrize("flag, out", [
        ("--train", "toy/plans.csv"),
        ("--train", "toy/new/../plans.csv"),
        ("--train", "link/plans.csv"),
        ("--test", "held/plans.csv"),
    ], ids=lambda value: value if value.startswith("--") else f"{value}-csv")
    def test_a_csv_out_beside_an_input_is_refused(
        self, toy_project_dir, tmp_path, capsys, flag, out
    ):
        (tmp_path / "held").mkdir()
        test = tmp_path / "held" / "toy-1.2.csv"
        test.write_bytes((toy_project_dir / "toy-1.2.csv").read_bytes())
        (tmp_path / "link").symlink_to(toy_project_dir)
        train = toy_project_dir / "toy-1.0.csv"
        before = listing(tmp_path)
        code = main(["plan", "--planner", "xtree", "--train", str(train), "--test", str(test),
                     "--out", str(tmp_path / out)])
        assert code == EXIT_USAGE
        data = train if flag == "--train" else test
        assert capsys.readouterr().err == (
            f"planwise: --out {tmp_path / out} lies among the data of {flag} {data}, "
            "whose CSVs are read as releases\n"
        )
        assert listing(tmp_path) == before

    def test_a_csv_out_below_or_a_json_out_beside_the_inputs_is_allowed(
        self, toy_project_dir, tmp_path
    ):
        root = toy_project_dir
        for out in (root / "plans" / "plans.csv", root / "plans.json"):
            assert main(["plan", "--planner", "xtree", "--train", str(root / "toy-1.0.csv"),
                         "--test", str(root / "toy-1.1.csv"), "--out", str(out)]) == EXIT_OK
        assert main(["evaluate", "--planner", "xtree", "--project-dir", str(root),
                     "--out-dir", str(tmp_path / "results")]) == EXIT_OK

    @pytest.mark.parametrize("name, fmt", [
        ("p.csv", "csv"), (".csv", "csv"),
        ("p.json", "json"), ("p", "json"), ("p.csv.json", "json"),
    ])
    def test_the_out_name_chooses_the_format(self, toy_project_dir, tmp_path, name, fmt):
        # A name that load_project's *.csv glob matches holds CSV; any other, JSON.
        out = tmp_path / "plans" / name
        train, test = (str(toy_project_dir / f"toy-{v}.csv") for v in ("1.0", "1.1"))
        assert main(["plan", "--planner", "xtree", "--train", train, "--test", test,
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        if fmt == "csv":
            assert text.startswith("class_name,wmc,") and len(text.splitlines()) == 61
        else:
            assert len(json.loads(text)["plans"]) == 60

    def test_unknown_planner_is_a_usage_error(self, toy_project_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "plan",
                    "--planner", "nsga",
                    "--train", str(toy_project_dir / "toy-1.0.csv"),
                    "--test", str(toy_project_dir / "toy-1.1.csv"),
                    "--out", str(tmp_path / "x.json"),
                ]
            )
        assert excinfo.value.code == 2

    def test_missing_file_fails_with_message(self, tmp_path, capsys):
        code = main(
            [
                "plan",
                "--planner", "xtree",
                "--train", str(tmp_path / "nope.csv"),
                "--test", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "planwise:" in capsys.readouterr().err


class TestBellwetherCommand:
    def test_toy_community_report(self, toy_community_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["bellwether", "--community", str(toy_community_dir), "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bellwether"] in {"apple", "berry"}
        assert doc["bellwether"] == max(
            doc["per_source_median"], key=lambda k: (doc["per_source_median"][k], k)
        )
        assert "bellwether:" in capsys.readouterr().out

    def test_single_project_community_fails(self, toy_community_dir, tmp_path, capsys):
        import shutil

        shutil.rmtree(toy_community_dir / "berry")
        code = main(
            ["bellwether", "--community", str(toy_community_dir),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_FAILURE
        assert "two projects" in capsys.readouterr().err

    def test_malformed_csv_names_the_file(self, toy_community_dir, tmp_path, capsys):
        bad = toy_community_dir / "apple" / "apple-1.csv"
        bad.write_text("name,bug\nX,0\n")
        code = main(
            ["bellwether", "--community", str(toy_community_dir),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == EXIT_FAILURE
        assert "apple-1.csv" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_three_versions_make_one_window(self, toy_project_dir, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--planner", "xtree",
                "--project-dir", str(toy_project_dir),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        results = sorted(p.name for p in out_dir.glob("*.json") if p.name != "summary.json")
        assert results == ["toy-1.0-1.1-1.2-xtree.json"]
        assert (out_dir / "toy-1.0-1.1-1.2-xtree-curve.csv").exists()
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "dataset,planner,aupec_reduced,aupec_increased,median_changes"
        assert len(summary) == 2

    def test_all_planners_summary(self, toy_project_dir, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "evaluate",
                "--planner", "all",
                "--project-dir", str(toy_project_dir),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((out_dir / "summary.json").read_text())
        planners = {row["planner"] for row in doc["rows"]}
        assert planners == {"xtree", "alves", "shatnawi", "oliveira"}

    def test_belltree_needs_a_community(self, toy_project_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--planner", "belltree",
                "--project-dir", str(toy_project_dir),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "community" in capsys.readouterr().err

    def test_too_few_versions_explains_requirement(self, tmp_path, capsys):
        root = tmp_path / "short"
        root.mkdir()
        for order, version in enumerate(("1", "2")):
            write_csv(toy_version(version, order), root / f"s-{version}.csv")
        code = main(
            [
                "evaluate",
                "--planner", "xtree",
                "--project-dir", str(root),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == (
            "planwise: toy has 2 release(s); evaluation trains on one, plans for "
            "the next, and validates on a third, so at least 3 are required\n"
        )

    def test_full_runs_are_byte_identical(self, toy_project_dir, tmp_path):
        outputs = []
        for label in ("a", "b"):
            out_dir = tmp_path / label
            assert (
                main(
                    [
                        "evaluate",
                        "--planner", "all",
                        "--project-dir", str(toy_project_dir),
                        "--out-dir", str(out_dir),
                    ]
                )
                == EXIT_OK
            )
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0] == outputs[1]


class TestBelltreeEvaluation:
    # "target": the project directory is the community's own; "project-dir":
    # a copy of it outside the community.
    @pytest.mark.parametrize("select", ["target", "project-dir"])
    def test_discovery_leaves_the_target_out(
        self, exemplar_community_dir, tmp_path, select
    ):
        import shutil

        community = load_community(exemplar_community_dir)
        assert discover(community).bellwether == "exemplar"
        target = community.get("exemplar")
        others = Community(tuple(p for p in community.projects if p.name != "exemplar"))
        source = others.get(discover(others).bellwether)
        expected = evaluate_windows(
            target, make_planner("belltree"), train=pool_versions(source)
        )

        out_dir = tmp_path / "out"
        project_dir = exemplar_community_dir / "exemplar"
        if select == "project-dir":
            project_dir = shutil.copytree(project_dir, tmp_path / "held" / "exemplar")
        code = main(
            [
                "evaluate",
                "--planner", "belltree",
                "--project-dir", str(project_dir),
                "--community", str(exemplar_community_dir),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        name = f"exemplar-{source.name}-pooled-2-3-belltree.json"
        doc = json.loads((out_dir / name).read_text())
        want = json.loads(json.dumps(expected[0].to_dict()))
        assert doc == dict(want, schema_version="1")
        assert doc["versions"] == {"train": f"{source.name}-pooled", "test": "2",
                                   "validation": "3"}

    @pytest.mark.parametrize("removed", [["beta"], ["alpha", "beta"]])
    def test_fewer_than_two_other_projects_fails(
        self, exemplar_community_dir, tmp_path, capsys, removed
    ):
        import shutil

        for name in removed:
            shutil.rmtree(exemplar_community_dir / name)
        code = main(
            [
                "evaluate",
                "--planner", "belltree",
                "--project-dir", str(exemplar_community_dir / "exemplar"),
                "--community", str(exemplar_community_dir),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "two community projects besides exemplar" in capsys.readouterr().err

    def test_too_few_target_releases_fail_before_discovery(
        self, exemplar_community_dir, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "planwise.bellwether.discover", lambda *a, **k: calls.append(a) or discover(*a, **k)
        )
        (exemplar_community_dir / "exemplar" / "exemplar-3.csv").unlink()
        code = main(
            [
                "evaluate",
                "--planner", "belltree",
                "--project-dir", str(exemplar_community_dir / "exemplar"),
                "--community", str(exemplar_community_dir),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_FAILURE
        assert calls == []
        assert capsys.readouterr().err == (
            "planwise: exemplar has 2 release(s); evaluation trains on one, plans "
            "for the next, and validates on a third, so at least 3 are required\n"
        )

    def test_bad_epsilon_fails_before_discovery(
        self, exemplar_community_dir, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            "planwise.bellwether.discover", lambda *a, **k: calls.append(a) or discover(*a, **k)
        )
        argv = ["evaluate", "--planner", "belltree",
                "--project-dir", str(exemplar_community_dir / "alpha"),
                "--community", str(exemplar_community_dir)]
        code = main([*argv, "--out-dir", str(tmp_path / "bad"), "--epsilon", "nan"])
        assert code == EXIT_FAILURE
        assert calls == [] and not (tmp_path / "bad").exists()
        assert main([*argv, "--out-dir", str(tmp_path / "ok")]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("case, message", [
        pytest.param("missing", "project directory {dir} does not exist", id="missing"),
        pytest.param("a-file", "project directory {dir} is not a directory", id="a-file"),
        pytest.param("no-csv", "project directory {dir} holds no version CSVs", id="no-csv"),
        pytest.param("two-releases", (
            "exemplar has 2 release(s); evaluation trains on one, plans for the next, "
            "and validates on a third, so at least 3 are required"), id="two-releases"),
        pytest.param("bad-epsilon", "epsilon must be finite and >= 0, got nan",
                     id="bad-epsilon"),
    ])
    def test_a_project_dir_target_fails_before_the_community_is_read(
        self, exemplar_community_dir, tmp_path, capsys, monkeypatch, case, message
    ):
        # The community was once read first whenever belltree ran, so each of
        # these failures waited on parsing every community CSV.
        import shutil

        calls = []
        monkeypatch.setattr(
            "planwise.cli.load_community", lambda *a: calls.append(a) or load_community(*a)
        )
        project_dir = tmp_path / "target"
        if case == "a-file":
            project_dir.write_text("name,bug\n")
        elif case == "no-csv":
            project_dir.mkdir()
        elif case != "missing":
            shutil.copytree(exemplar_community_dir / "exemplar", project_dir)
        if case == "two-releases":
            (project_dir / "exemplar-3.csv").unlink()
        argv = ["evaluate", "--planner", "all", "--community", str(exemplar_community_dir),
                "--project-dir", str(project_dir), "--out-dir", str(tmp_path / "out")]
        if case == "bad-epsilon":
            argv += ["--epsilon", "nan"]
        assert main(argv) == EXIT_FAILURE
        assert capsys.readouterr().err == f"planwise: {message.format(dir=project_dir)}\n"
        assert calls == [] and not (tmp_path / "out").exists()
        if case == "bad-epsilon":
            assert main(argv[:-2]) == EXIT_OK
            assert calls == [(str(exemplar_community_dir),)]

    def test_a_renamed_copy_of_the_project_dir_is_left_out(
        self, exemplar_community_dir, tmp_path, monkeypatch
    ):
        # --project-dir names the target by its CSV label, the community by
        # directory: a copy of the target under another directory must not
        # train belltree.
        root = exemplar_community_dir
        (root / "exemplar").rename(root / "apache-exemplar")
        community = load_community(root)
        others = Community((community.get("alpha"), community.get("beta")))
        target = Project("exemplar", community.get("apache-exemplar").versions)
        source = discover(others).bellwether
        expected = evaluate_windows(
            target, make_planner("belltree"), train=pool_versions(others.get(source)),
        )
        calls = []
        monkeypatch.setattr(
            "planwise.bellwether.discover",
            lambda c, *a, **k: calls.append(c.project_names()) or discover(c, *a, **k),
        )
        out_dir = tmp_path / "out"
        code = main(["evaluate", "--planner", "belltree", "--community", str(root),
                     "--project-dir", str(root / "apache-exemplar"),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        doc = json.loads((out_dir / f"exemplar-{source}-pooled-2-3-belltree.json").read_text())
        assert doc == dict(json.loads(json.dumps(expected[0].to_dict())), schema_version="1")
        assert calls == [["alpha", "beta"]]

    def test_results_are_named_by_the_files_project_not_the_directory(
        self, exemplar_community_dir, tmp_path
    ):
        # The project's one spelling is --project-dir, and its files name it;
        # the directory's name under --community (once --target) names nothing.
        root = exemplar_community_dir
        (root / "exemplar").rename(root / "apache-exemplar")
        argv = ["evaluate", "--planner", "all", "--project-dir", str(root / "apache-exemplar"),
                "--community", str(root), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert len(names) == 2 + 5 * 2 and names[-2:] == ["summary.csv", "summary.json"]
        assert all(name.startswith("exemplar-") for name in names[:-2]), names
        rows = json.loads((tmp_path / "out" / "summary.json").read_text())["rows"]
        assert {row["dataset"] for row in rows} == {"exemplar-1"}
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--planner", "all", "--community", str(root),
                  "--target", "apache-exemplar", "--out-dir", str(tmp_path / "by-dir")])
        assert excinfo.value.code == EXIT_USAGE
        assert not (tmp_path / "by-dir").exists()


# The environment variables that once set an option, each with a valid
# value other than the option's default; PLANWISE_FORMAT and
# PLANWISE_QUALITY_MEASURE never did.
FORMER_VARIABLES = {
    "PLANWISE_GAMMA": "0.25", "PLANWISE_SEED": "7", "PLANWISE_MAX_DEPTH": "2",
    "PLANWISE_MIN_LEAF": "30", "PLANWISE_PERCENTILE": "40", "PLANWISE_P0": "0.5",
    "PLANWISE_P1": "0.5", "PLANWISE_MIN_COMPLIANCE": "60", "PLANWISE_TAIL": "60",
    "PLANWISE_EPSILON": "0.5", "PLANWISE_FORMAT": "csv",
    "PLANWISE_QUALITY_MEASURE": "precision",
}


def run_every_command(community: Path, out: Path, capsys, flags: bool = False) -> dict:
    """Each command's exit code, stdout, stderr and files (their bytes by path
    under its own directory of ``out``), run on ``community``'s exemplar. With
    ``flags``, each command is also given the options of ``FORMER_VARIABLES``
    it takes."""
    project = community / "exemplar"
    train = ["--train", str(project / "exemplar-1.csv"), str(project / "exemplar-2.csv")]
    test = ["--test", str(project / "exemplar-3.csv")]
    commands = {
        "plan-json": ["plan", "--planner", "xtree", *train, *test],
        "plan-csv": ["plan", "--planner", "xtree", *train, *test],
        **{f"thresholds-{name}": ["thresholds", "--planner", name, *train]
           for name in ("alves", "shatnawi", "oliveira")},
        "tree": ["tree", *train],
        "bellwether": ["bellwether", "--community", str(community)],
        "evaluate": ["evaluate", "--planner", "all", "--project-dir", str(project),
                     "--community", str(community)],
    }
    runs = {}
    for name, argv in commands.items():
        directory = out / name
        written_to = directory / ("out.csv" if name == "plan-csv" else "out")
        argv = argv + (["--out-dir", str(directory)] if name == "evaluate"
                       else ["--out", str(written_to)])
        if flags:
            known = subparser(argv[0])._option_string_actions
            for variable, value in FORMER_VARIABLES.items():
                flag = "--" + variable.removeprefix("PLANWISE_").lower().replace("_", "-")
                argv += [flag, value] if flag in known else []
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        written = {path.relative_to(directory).as_posix(): path.read_bytes()
                   for path in sorted(directory.rglob("*"))} if directory.exists() else {}
        runs[name] = (code, *capsys.readouterr(), written)
    return runs


class TestOtherCommands:
    def test_several_train_files_are_pooled(self, toy_project_dir, tmp_path):
        # The toy releases hold the same 60 classes, so two files pool to
        # the later one's rows.
        train = [str(toy_project_dir / f"toy-{v}.csv") for v in ("1.0", "1.1")]
        test = str(toy_project_dir / "toy-1.2.csv")
        runs = {
            "plan": ["--planner", "xtree", "--test", test],
            "thresholds": ["--planner", "alves"],
            "tree": [],
        }
        docs = {}
        for command, extra in runs.items():
            for files in (train, train[1:]):
                out = tmp_path / f"{command}-{len(files)}.json"
                assert main([command, "--train", *files, *extra, "--out", str(out)]) == EXIT_OK
                docs[command, len(files)] = json.loads(out.read_text())
        assert docs["tree", 2]["tree"]["support"] == 60
        plans = docs["plan", 2]
        assert plans.pop("train") == train and docs["plan", 1].pop("train") == train[1:]
        assert len(plans["plans"]) == 60
        assert docs["thresholds", 2]["rules"]
        for command in runs:
            assert docs[command, 2] == docs[command, 1], command

    @pytest.mark.parametrize("options", [{}, {"min_leaf": 1, "max_depth": 20}],
                             ids=["defaults", "deep"])
    def test_tree_writes_the_planners_tree_without_its_plan_targets(
        self, toy_project_dir, tmp_path, monkeypatch, options
    ):
        # tree writes only the tree, so it never searches the plan targets
        # that fitting the planner would.
        train = [str(toy_project_dir / f"toy-{v}.csv") for v in ("1.0", "1.1", "1.2")]
        flags = [arg for key, value in options.items()
                 for arg in (f"--{key.replace('_', '-')}", str(value))]
        out = tmp_path / "tree.json"
        targets = count_calls(monkeypatch, planners, "plan_targets")
        assert main(["tree", "--train", *train, *flags, "--out", str(out)]) == EXIT_OK
        assert targets == []
        fitted = make_planner("xtree", **options).fit(pool_versions(load_project(train)))
        assert json.loads(out.read_text())["tree"] == tree_to_dict(fitted.tree)

    @pytest.mark.parametrize("command", ["tree", "thresholds", "bellwether"])
    @pytest.mark.parametrize("name", ["out.csv", ".csv"])
    def test_a_json_command_refuses_a_csv_out(
        self, toy_project_dir, toy_community_dir, tmp_path, capsys, command, name
    ):
        # A JSON document named *.csv among a project's releases was read back
        # as one: the next evaluate or bellwether failed on its missing 'name'.
        train = ["--train", str(toy_project_dir / "toy-1.0.csv")]
        argv = {"tree": ["tree", *train],
                "thresholds": ["thresholds", "--planner", "alves", *train],
                "bellwether": ["bellwether", "--community", str(toy_community_dir)]}[command]
        out = toy_community_dir / "apple" / name
        before = listing(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(out)])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: argument --out: {out} would be read back as a release; "
            "a JSON output cannot end in .csv\n")
        assert listing(tmp_path) == before

    @pytest.mark.parametrize("command, removed", [
        ("plan", ["--format", "csv"]),
        ("plan", ["--format", "json"]),
        ("evaluate", ["--target", "toy"]),
    ], ids=["format-csv", "format-json", "target"])
    def test_a_removed_option_is_a_usage_error(
        self, toy_project_dir, tmp_path, capsys, command, removed
    ):
        # --target once named a community's project, and lost silently to a
        # --project-dir given beside it; --format repeated what --out's name says.
        argv = {
            "plan": ["plan", "--planner", "xtree",
                     "--train", str(toy_project_dir / "toy-1.0.csv"),
                     "--test", str(toy_project_dir / "toy-1.1.csv"),
                     "--out", str(tmp_path / "out" / "plans.csv")],
            "evaluate": ["evaluate", "--planner", "xtree", "--project-dir", str(toy_project_dir),
                         "--out-dir", str(tmp_path / "out")],
        }[command]
        before = listing(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *removed])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: {' '.join(removed)}\n")
        assert listing(tmp_path) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--gamma", "0.3"],
            ["thresholds", "--planner", "alves", "--max-depth", "3"],
        ],
    )
    def test_commands_reject_options_they_do_not_read(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--train", "t.csv", "--out", str(tmp_path / "o.json")])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "column, cell",
        [("wmc", "nan"), ("cbo", "inf"), ("bug", "inf"), ("bug", "nan"), ("wmc", "x")],
    )
    def test_bad_cell_fails_with_file_and_row(self, tmp_path, capsys, column, cell):
        ds = toy_version("1.0", 0, n=3)
        path = tmp_path / "toy-1.0.csv"
        write_csv(ds, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(column)] = cell
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        code = main(["tree", "--train", str(path), "--out", str(tmp_path / "t.json")])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert f"{path}: row 3:" in err
        assert repr(cell) in err and repr(column) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, problem",
        [("Café".encode("latin-1"), "not UTF-8 text"),
         (b"x" * 200_000, "row 3: field larger than")],
        ids=["latin-1", "oversized-cell"],
    )
    def test_unreadable_csv_fails_with_the_file(self, tmp_path, capsys, content, problem):
        path = tmp_path / "toy-1.0.csv"
        write_csv(toy_version("1.0", 0, n=3), path)
        lines = path.read_bytes().splitlines()
        lines[2] = lines[2].replace(b",cls1,", b"," + content + b",", 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["tree", "--train", str(path), "--out", str(tmp_path / "t.json")])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith(f"planwise: {path}: {problem}")
        assert "Traceback" not in err

    def test_a_second_version_column_fails_with_the_file(self, tmp_path, capsys):
        path = tmp_path / "toy-1.0.csv"
        write_csv(toy_version("1.0", 0, n=3), path)
        lines = path.read_text().splitlines()
        lines = [lines[0] + ",version"] + [line + ",2.0" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "t.json"
        code = main(["tree", "--train", str(path), "--out", str(out)])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"planwise: {path}: column 'version' appears more than once\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy-1.0.csv"]

    def test_thresholds_dump(self, toy_project_dir, tmp_path):
        out = tmp_path / "rules.json"
        code = main(
            [
                "thresholds",
                "--planner", "oliveira",
                "--train", str(toy_project_dir / "toy-1.0.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["rules"]) == 20
        assert all("p_fraction" in rule for rule in doc["rules"])

    def test_tree_dump(self, toy_project_dir, tmp_path):
        out = tmp_path / "tree.json"
        code = main(
            ["tree", "--train", str(toy_project_dir / "toy-1.0.csv"),
             "--out", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert "tree" in doc
        assert doc["tree"]["support"] == 60

    def test_no_environment_variable_changes_a_run(
        self, monkeypatch, capsys, exemplar_community_dir, tmp_path
    ):
        # The former PLANWISE_* option variables, once invalid and once valid
        # but not the default, leave every exit code, message and byte as a
        # run without them leaves it.
        for variable in FORMER_VARIABLES:
            monkeypatch.delenv(variable, raising=False)
        bare = run_every_command(exemplar_community_dir, tmp_path / "bare", capsys)
        assert all(code == EXIT_OK for code, *_ in bare.values())
        for label, values in (("invalid", dict.fromkeys(FORMER_VARIABLES, "abc")),
                              ("valid", FORMER_VARIABLES)):
            for variable, value in values.items():
                monkeypatch.setenv(variable, value)
            got = run_every_command(exemplar_community_dir, tmp_path / label, capsys)
            assert got == bare, label
        # The valid values matter: given as flags, they change every output.
        flagged = run_every_command(exemplar_community_dir, tmp_path / "flagged", capsys,
                                    flags=True)
        assert all(flagged[name][3] != bare[name][3] for name in bare), [
            name for name in bare if flagged[name][3] == bare[name][3]]

    def test_help_lists_spec_defaults(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["plan", "--help"])
        text = capsys.readouterr().out
        assert "0.5" in text   # gamma
        assert "70" in text    # percentile
        assert "0.05" in text  # p0/p1
        assert "90" in text    # min-compliance/tail


def subparser(command: str):
    return build_parser()._subparsers._group_actions[0].choices[command]


def planner_option_dests(command: str) -> set[str]:
    """Options a subcommand registers outside argparse's default groups."""
    sub = subparser(command)
    return {
        action.dest
        for group in sub._action_groups
        if group not in (sub._positionals, sub._optionals)
        for action in group._group_actions
    }


_HELP = (("-h", "--help"), None, "==SUPPRESS==", "show this help message and exit")
_GAMMA_SEED = ("planner options", [
    (("--gamma",), "float", 0.5, "better-sibling score factor for the tree planners"),
    (("--seed",), "int", 42,
     "seed for suggested in-range values (fixed for reproducibility)"),
])
_TREE = ("tree options", [
    (("--max-depth",), "int", 10, "tree depth limit"),
    (("--min-leaf",), "int", None, "minimum records per leaf (default: max(5, N/50))"),
])
_BASELINE = ("threshold baseline options", [
    (("--percentile",), "float", 70.0, "size-weighted percentile for the alves baseline"),
    (("--p0",), "float", 0.05, "significance level of the shatnawi logistic screen"),
    (("--p1",), "float", 0.05, "risk probability defining the shatnawi threshold"),
    (("--min-compliance",), "float", 90.0, "compliance target of the oliveira penalty"),
    (("--tail",), "float", 90.0, "tail percentile anchoring the oliveira penalty"),
])

# Every subcommand's argument groups: (title, [(flags, type, default, help)]).
# argparse's own two groups are named <positionals> and <options>, because
# their titles depend on the Python version.
OPTION_SURFACE = {
    "plan": [
        ("<positionals>", []),
        ("<options>", [
            _HELP,
            (("--planner",), None, None, None),
            (("--train",), None, None,
             "training CSV(s); several files are pooled, each class as its latest row"),
            (("--test",), None, None, "release CSV to plan for"),
            (("--out",), None, None, "plan document: a CSV when it ends in .csv, else JSON"),
        ]),
        _GAMMA_SEED, _TREE, _BASELINE,
    ],
    "bellwether": [
        ("<positionals>", []),
        ("<options>", [
            _HELP,
            (("--community",), None, None,
             "directory of <project>/<version>.csv subdirectories"),
            (("--out",), "_json_out", None, None),
            (("--quality-measure",), None, "g-score", None),
        ]),
    ],
    "evaluate": [
        ("<positionals>", []),
        ("<options>", [
            _HELP,
            (("--planner",), None, None, None),
            (("--project-dir",), None, None,
             "directory of the evaluated project's version CSVs; results carry the project "
             "name those files hold"),
            (("--community",), None, None, "community directory (needed for belltree)"),
            (("--out-dir",), None, None,
             "result directory; keep it outside the data directories"),
            (("--epsilon",), "float", 0.0,
             "relative tolerance when diffing developer changes"),
            (("--quality-measure",), None, "g-score", None),
        ]),
        _GAMMA_SEED, _TREE, _BASELINE,
    ],
    "thresholds": [
        ("<positionals>", []),
        ("<options>", [
            _HELP,
            (("--planner",), None, None, None),
            (("--train",), None, None, None),
            (("--out",), "_json_out", None, None),
        ]),
        _BASELINE,
    ],
    "tree": [
        ("<positionals>", []),
        ("<options>", [_HELP, (("--train",), None, None, None),
                       (("--out",), "_json_out", None, None)]),
        _TREE,
    ],
}


def option_surface(command: str) -> list:
    sub = subparser(command)
    names = {id(sub._positionals): "<positionals>", id(sub._optionals): "<options>"}
    return [
        (names.get(id(group), group.title), [
            (tuple(a.option_strings), getattr(a.type, "__name__", a.type), a.default, a.help)
            for a in group._group_actions
        ])
        for group in sub._action_groups
    ]


class TestOptionSurface:
    @pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
    def test_options_are_pinned(self, command):
        assert option_surface(command) == OPTION_SURFACE[command]

    def test_every_subcommand_is_pinned(self):
        assert set(build_parser()._subparsers._group_actions[0].choices) == set(OPTION_SURFACE)


class TestPlannerOptionsFollowTheTable:
    @pytest.mark.parametrize("command", ["plan", "evaluate", "thresholds"])
    def test_planner_commands_register_their_planners_options(self, command):
        (planner,) = [a for a in subparser(command)._actions if a.dest == "planner"]
        names = [name for name in planner.choices if name != "all"]
        expected = {option for name in names for option in PLANNERS[name][1]}
        assert planner_option_dests(command) == expected

    def test_tree_registers_the_tree_options_of_xtree(self):
        options = set(inspect.signature(build_tree).parameters) - {"train", "bins"}
        assert options <= set(PLANNERS["xtree"][1])
        assert planner_option_dests("tree") == options

    @pytest.mark.parametrize("name", PLANNERS)
    def test_a_bare_command_line_plans_at_the_library_defaults(self, name):
        args = build_parser().parse_args(
            ["plan", "--planner", name, "--train", "a.csv", "--test", "b.csv", "--out", "c.json"])
        # tie_heavy_history, not tie_heavy_community: on the latter shatnawi
        # keeps no rule, so its plans would match whatever its options were.
        train, test, *_ = tie_heavy_history().versions
        cli, library = (list(map(make_planner(name, **options).fit(train).plan, test.records))
                        for options in (vars(args), {}))
        assert cli == library and any(map(changes_count, library))


# Runs each command of a JSON list of argument lists in one fresh
# interpreter (this process has numpy loaded through conftest), and prints
# the names of the modules loaded after the import and after each command,
# each list on a line of its own after a marker.
_RUN_COMMANDS = (
    "import json, sys\n"
    "from planwise.cli import main\n"
    "print('modules:', json.dumps(sorted(sys.modules)))\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert main(argv) == 0, argv\n"
    "    print('modules:', json.dumps(sorted(sys.modules)))\n"
)


def run_in_one_interpreter(commands, **env):
    """The modules loaded after ``import planwise.cli`` and after each
    command, run in that order in one fresh interpreter."""
    src = str(Path(planwise.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [set(json.loads(line.removeprefix("modules: ")))
            for line in done.stdout.splitlines() if line.startswith("modules: ")]


def test_reruns_are_byte_identical_under_any_hash_seed(tmp_path):
    community = tmp_path / "community"
    for project in (*tie_heavy_community().projects, tie_heavy_history()):
        (community / project.name).mkdir(parents=True)
        for release in project.versions:
            write_csv(release, community / project.name / f"{project.name}-{release.version}.csv")
    history = community / "p3"
    outputs = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"out-{hash_seed}"
        run_in_one_interpreter([
            ["plan", "--planner", "xtree", "--train", str(history / "p3-1.csv"),
             str(history / "p3-2.csv"), "--test", str(history / "p3-3.csv"),
             "--out", str(out / "plans.json")],
            ["bellwether", "--community", str(community), "--out", str(out / "bellwether.json")],
            ["evaluate", "--planner", "all", "--project-dir", str(history),
             "--community", str(community), "--out-dir", str(out / "evaluate")],
        ], PYTHONHASHSEED=hash_seed)
        outputs[hash_seed] = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in out.rglob("*") if path.is_file()
        }
    # plans, bellwether, and per window and planner (5 planners, 2 windows) a
    # result and a curve, plus the two summaries
    assert len(outputs["0"]) == 2 + 5 * 2 * 2 + 2
    assert outputs["0"] == outputs["12345"]


# What no planwise command loads: numpy, and what ``statistics`` imports
# and planwise does not need.
UNWANTED = {"numpy", "numpy.ma", "statistics", "decimal", "fractions"}


def unwanted_after(commands):
    """The unwanted modules loaded after ``import planwise.cli`` and after
    each command, run in that order in one fresh interpreter."""
    return [modules & UNWANTED for modules in run_in_one_interpreter(commands)]


class TestNumpyLoadsOnlyWhereUsed:
    def test_tree_commands_never_import_numpy(
        self, toy_project_dir, toy_community_dir, tmp_path
    ):
        train = str(toy_project_dir / "toy-1.0.csv")
        test = str(toy_project_dir / "toy-1.1.csv")
        runs = {
            "bellwether": ["bellwether", "--community", str(toy_community_dir)],
            "tree": ["tree", "--train", train],
            "plan": ["plan", "--planner", "xtree", "--train", train, "--test", test],
        }
        commands = [argv + ["--out", str(tmp_path / f"{name}.json")] for name, argv in runs.items()]
        assert unwanted_after(commands) == [set()] * (1 + len(commands))
        assert all((tmp_path / f"{name}.json").exists() for name in runs)

    def test_belltree_evaluation_never_imports_numpy(self, exemplar_community_dir, tmp_path):
        out_dir = tmp_path / "out"
        assert unwanted_after([[
            "evaluate", "--planner", "belltree",
            "--project-dir", str(exemplar_community_dir / "exemplar"),
            "--community", str(exemplar_community_dir), "--out-dir", str(out_dir),
        ]]) == [set()] * 2
        assert (out_dir / "exemplar-alpha-pooled-2-3-belltree.json").exists()

    def test_importing_the_cli_loads_neither_numpy_nor_statistics(self):
        assert unwanted_after([]) == [set()]

    def test_evaluating_every_planner_never_imports_numpy_ma(
        self, toy_project_dir, exemplar_community_dir, tmp_path
    ):
        out_dir = tmp_path / "out"
        assert unwanted_after([
            ["evaluate", "--planner", "all", "--project-dir", str(toy_project_dir),
             "--out-dir", str(out_dir / "toy")],
            ["evaluate", "--planner", "all",
             "--project-dir", str(exemplar_community_dir / "exemplar"),
             "--community", str(exemplar_community_dir), "--out-dir", str(out_dir / "exemplar")],
        ]) == [set()] * 3
        assert (out_dir / "toy" / "summary.json").exists()
        assert (out_dir / "exemplar" / "exemplar-1-2-3-shatnawi.json").exists()

    def test_oliveira_thresholds_never_import_numpy(self, toy_project_dir, tmp_path):
        train, test = (str(toy_project_dir / f"toy-{v}.csv") for v in ("1.0", "1.1"))
        commands = [
            ["plan", "--planner", "alves", "--train", train, "--test", test,
             "--out", str(tmp_path / "alves.csv")],
            *(["thresholds", "--planner", name, "--train", train,
               "--out", str(tmp_path / f"{name}.json")]
              for name in ("alves", "shatnawi", "oliveira")),
        ]
        assert unwanted_after(commands) == [set()] * (1 + len(commands))
        assert json.loads((tmp_path / "oliveira.json").read_text())["rules"]


class TestEvaluateEdgeCases:
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_epsilon_fails_and_writes_nothing(self, toy_project_dir, tmp_path, capsys, value):
        # A NaN or infinite tolerance once exited 0 with every developer move
        # read as no change.
        argv = ["evaluate", "--planner", "all", "--project-dir", str(toy_project_dir),
                "--out-dir", str(tmp_path / "out"), "--epsilon", value]
        assert main(argv) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("planwise: epsilon must be finite and >= 0") and value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, problem", [
        ("--tail", "100", "min_compliance and tail must lie in (0, 100)"),
        ("--percentile", "0", "percentile must lie in (0, 100)"),
    ], ids=["tail", "percentile"])
    def test_a_planner_that_fails_leaves_no_result_of_the_others(
        self, toy_project_dir, tmp_path, capsys, option, value, problem
    ):
        # oliveira (--tail) scores last and alves (--percentile) second: the
        # planners before them once wrote their windows and then exited 1.
        code = main(["evaluate", "--planner", "all", "--project-dir", str(toy_project_dir),
                     "--out-dir", str(tmp_path / "out"), option, value])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == f"planwise: {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("selection", [[], ["--community", "c"], ["--target", "t"]],
                             ids=["neither", "community-alone", "target-alone"])
    def test_evaluate_needs_a_project(self, tmp_path, capsys, selection):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--planner", "xtree", "--out-dir", str(out_dir), *selection])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --project-dir\n")
        assert not out_dir.exists()

    def test_empty_project_dir_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            [
                "evaluate",
                "--planner", "xtree",
                "--project-dir", str(empty),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_FAILURE
        assert "no version CSVs" in capsys.readouterr().err

    @pytest.mark.parametrize("case, state", [
        ("missing", "does not exist"),
        ("empty", "holds no version CSVs"),
        ("other-files", "holds no version CSVs"),
        ("a-file", "is not a directory"),
    ])
    def test_a_project_dir_without_csvs_is_named(self, tmp_path, capsys, case, state):
        project_dir = tmp_path / case
        if case == "a-file":
            project_dir.write_text("name,bug\n")
        elif case != "missing":
            project_dir.mkdir()
        if case == "other-files":
            (project_dir / "notes.txt").write_text("no releases here\n")
            (project_dir / "old").mkdir()
            write_csv(toy_version("1.0", 0), project_dir / "old" / "toy-1.0.csv")
        code = main(["evaluate", "--planner", "all", "--project-dir", str(project_dir),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == f"planwise: project directory {project_dir} {state}\n"
        assert not (tmp_path / "out").exists()

    # Results written where CSVs are read were loaded back as releases: the
    # next run failed on a curve CSV's missing 'name' column.
    @pytest.mark.parametrize("flag, out", [
        ("--project-dir", "planted/exemplar"),
        ("--project-dir", "planted/alpha/../exemplar"),
        ("--project-dir", "link"),
        ("--community", "planted/exemplar"),
        ("--community", "planted/alpha"),
        ("--community", "planted/new"),
    ])
    def test_an_out_dir_read_as_data_is_refused(
        self, exemplar_community_dir, toy_project_dir, tmp_path, capsys, monkeypatch, flag, out
    ):
        calls = []
        monkeypatch.setattr(
            "planwise.datasets.load_csv", lambda *a, **k: calls.append(a) or load_csv(*a, **k)
        )
        root = exemplar_community_dir
        (tmp_path / "link").symlink_to(root / "exemplar")
        data, project = ((root / "exemplar", []) if flag == "--project-dir"
                         else (root, ["--project-dir", str(toy_project_dir)]))
        before = listing(tmp_path)
        code = main(["evaluate", "--planner", "all", flag, str(data), *project,
                     "--out-dir", str(tmp_path / out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"planwise: --out-dir {tmp_path / out} lies among the data of {flag} {data}, "
            "whose CSVs are read as releases\n"
        )
        assert listing(tmp_path) == before and calls == []

    def test_an_out_dir_beside_or_below_the_data_is_allowed(self, exemplar_community_dir):
        # A community's CSVs sit one level down, a project's at its top level.
        root = exemplar_community_dir
        project = ["--project-dir", str(root / "exemplar"),
                   "--out-dir", str(root / "exemplar" / "results")]
        community = ["--project-dir", str(root / "exemplar"), "--community", str(root),
                     "--out-dir", str(root)]
        for _ in range(2):  # the rerun reads data the first run wrote beside
            for argv in (project, community):
                assert main(["evaluate", "--planner", "xtree", *argv]) == EXIT_OK
        assert (root / "summary.csv").exists()
        assert (root / "exemplar" / "results" / "summary.csv").exists()


def listing(root):
    """Every path under ``root`` with its size, for a directory left untouched."""
    return sorted((str(p.relative_to(root)), p.lstat().st_size) for p in root.rglob("*"))


UNLABELLED = ("alpha", "beta", "gamma", "delta")


def unlabelled_releases(root, stems, seed=0):
    """One toy release CSV per stem, in ``root``, with no project or version
    column and a stem ``_split_stem`` finds no label in: each loads as ``0``."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for order, stem in enumerate(stems):
        rows = [",".join(["name", *METRICS, "bug"])] + [
            ",".join([r.class_name, *(str(r.metrics[m]) for m in METRICS),
                      str(r.defects)])
            for r in toy_version("unused", order, seed=seed).records
        ]
        paths.append(root / f"{stem}.csv")
        paths[-1].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths


class TestReleaseLabels:
    def test_plan_trains_on_numbered_and_named_releases(self, tmp_path):
        paths = []
        for order, version in enumerate(("final", "1.3", "1.4")):
            paths.append(tmp_path / f"toy-{version}.csv")
            write_csv(toy_version(version, order), paths[-1])
        out = tmp_path / "plans.json"
        code = main(["plan", "--planner", "xtree", "--train", str(paths[0]),
                     str(paths[1]), "--test", str(paths[2]), "--out", str(out)])
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["plans"]) == 60

    def test_plan_pools_training_files_that_hold_no_label(self, tmp_path):
        paths = unlabelled_releases(tmp_path, ("alpha", "beta", "gamma"))
        out = tmp_path / "plans.json"
        code = main(["plan", "--planner", "xtree", "--train", str(paths[0]),
                     str(paths[1]), "--test", str(paths[2]), "--out", str(out)])
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["plans"]) == 60

    def test_plan_pools_three_training_files_that_hold_no_label(self, tmp_path):
        *train, test = unlabelled_releases(tmp_path, UNLABELLED)
        out = tmp_path / "plans.json"
        code = main(["plan", "--planner", "xtree", "--train", *map(str, train),
                     "--test", str(test), "--out", str(out)])
        assert code == EXIT_OK
        assert len(json.loads(out.read_text())["plans"]) == 60

    def test_bellwether_pools_projects_of_unlabelled_releases(self, tmp_path, capsys):
        root = tmp_path / "community"
        for seed, name in enumerate(("apple", "berry", "cherry")):
            unlabelled_releases(root / name, UNLABELLED, seed=10 * seed)
        out = tmp_path / "bellwether.json"
        code = main(["bellwether", "--community", str(root), "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        assert json.loads(out.read_text())["bellwether"] in {"apple", "berry", "cherry"}

    def test_evaluate_names_windows_by_position_when_labels_repeat(self, tmp_path):
        root = tmp_path / "alpha"
        unlabelled_releases(root, UNLABELLED)
        out_dir = tmp_path / "out"
        code = main(["evaluate", "--planner", "all", "--project-dir", str(root),
                     "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        planners = ["xtree", "alves", "shatnawi", "oliveira"]
        stems = [f"alpha-{w}-{w + 1}-{w + 2}-{p}" for p in planners for w in (1, 2)]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            [f"{stem}.json" for stem in stems] + [f"{stem}-curve.csv" for stem in stems]
            + ["summary.csv", "summary.json"]
        )
        rows = json.loads((out_dir / "summary.json").read_text())["rows"]
        assert [(row["dataset"], row["planner"]) for row in rows] == [
            (f"alpha-{w}", p) for p in planners for w in (1, 2)
        ]
        windows = evaluate_windows(load_project(sorted(root.glob("*.csv"))), make_planner("xtree"))
        for row, stem in zip(rows, stems):
            doc = json.loads((out_dir / f"{stem}.json").read_text())
            assert doc["versions"] == {"train": "0", "test": "0", "validation": "0"}
            assert (doc["aupec_reduced"], doc["aupec_increased"],
                    doc["changes_per_plan"]["median"]) == (
                row["aupec_reduced"], row["aupec_increased"], row["median_changes"])
            curve = (out_dir / f"{stem}-curve.csv").read_text().splitlines()
            assert curve[1:] == [
                f"{p['overlap_bucket']!r},{p['defects_reduced']},{p['defects_increased']},"
                f"{p['classes']}"
                for p in doc["curve"]
            ]
        # Window 1 is kept beside window 2: its releases differ, so its result does.
        first, second = (json.loads((out_dir / f"{stem}.json").read_text()) for stem in stems[:2])
        assert first != second
        assert [first, second] == [
            json.loads(json.dumps(dict(w.to_dict(), schema_version="1"))) for w in windows
        ]

    def test_evaluate_rejects_two_releases_with_one_label(
        self, toy_project_dir, tmp_path, capsys
    ):
        first, second = toy_project_dir / "toy-1.1.csv", toy_project_dir / "toy-1.1b.csv"
        write_csv(toy_version("1.1", 5), second)
        code = main(["evaluate", "--planner", "xtree", "--project-dir",
                     str(toy_project_dir), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == (
            f"planwise: {first} and {second} both hold release '1.1'\n"
        )
        assert not (tmp_path / "out").exists()
