"""The bytes of every file the CLI writes, and CSV cells that round-trip.

The digests were recorded while each command still assembled its JSON and
CSV by hand, so they pin the shared writers to those bytes: any change to a
key, a number's text, an indent, a line end or the order of rows changes
them. Commands run from ``tmp_path`` with relative paths, because a plan
document records its ``--train``/``--test`` arguments as given.
"""

import csv
import gc
import hashlib
import json
import math
import os
import stat
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import planwise.cli
from planwise.cli import EXIT_FAILURE, EXIT_OK, _publish, _write_csv, _write_json, main
from planwise.datasets import METRICS, pool_versions
from planwise.planners import XTreePlanner, make_planner, suggest_refactorings

from conftest import make_dataset, make_record, tie_heavy_history, write_csv

TRAIN = ["planted/exemplar/exemplar-1.csv", "planted/exemplar/exemplar-2.csv"]
TEST = "planted/exemplar/exemplar-3.csv"

COMMANDS = [
    ["plan", "--planner", "xtree", "--train", *TRAIN, "--test", TEST,
     "--out", "out/plans-xtree.json"],
    ["plan", "--planner", "alves", "--train", *TRAIN, "--test", TEST,
     "--out", "out/plans-alves.csv", "--format", "csv"],
    ["bellwether", "--community", "planted", "--out", "out/bellwether.json"],
    ["evaluate", "--planner", "all", "--community", "planted",
     "--target", "exemplar", "--out-dir", "out/evaluate"],
    ["thresholds", "--planner", "alves", "--train", *TRAIN,
     "--out", "out/thresholds-alves.json"],
    ["thresholds", "--planner", "shatnawi", "--train", *TRAIN,
     "--out", "out/thresholds-shatnawi.json"],
    ["thresholds", "--planner", "oliveira", "--train", *TRAIN,
     "--out", "out/thresholds-oliveira.json"],
    ["tree", "--train", *TRAIN, "--out", "out/tree.json"],
]

# output file (relative to out/) -> sha256 of its bytes.
EXPECTED = {
    "bellwether.json": (
        "b6960b2a9051ae061074c1a7a57ae7ba44f4fa2f0f7f72677b79c2bd459dfa62"
    ),
    "evaluate/exemplar-1-2-3-alves-curve.csv": (
        "7530f5cb042b0649b69c71a8de2aea3b13e4ff216182aa55474202aa5389a26f"
    ),
    "evaluate/exemplar-1-2-3-alves.json": (
        "d39fa994340f8f4d642544e3ad400624f07b4adff53e32e08327bac6da0fbc2b"
    ),
    "evaluate/exemplar-1-2-3-belltree-curve.csv": (
        "91e64e11b15e5ca1a077c332253a830e2828ae1bb80274c628d19cb876b5c5b0"
    ),
    "evaluate/exemplar-1-2-3-belltree.json": (
        "1d90306688d714fee969d42fcbcc0cbcd44d1ab30182ea6ccd2f0d76cdb85460"
    ),
    "evaluate/exemplar-1-2-3-oliveira-curve.csv": (
        "ccecd8ef855143b5d646da4ed48e94700af0aba19b952d99e18b8ff23453ecba"
    ),
    "evaluate/exemplar-1-2-3-oliveira.json": (
        "893308a1acc4015768605970e2c493d1f34d424721530edbeddc98d8fa0c2428"
    ),
    "evaluate/exemplar-1-2-3-shatnawi-curve.csv": (
        "b9c43fe40c4ed04fe2d9987324b8d94110ab4e214f7ac80fd38299919e860aa5"
    ),
    "evaluate/exemplar-1-2-3-shatnawi.json": (
        "aacd6573e967d0e6c9c73718c3b428a93cbdde6756a5e6fa8a2f72b9c76803dc"
    ),
    "evaluate/exemplar-1-2-3-xtree-curve.csv": (
        "188853f27e2299a710e62bb4891b6d9920b95139cb5ea884d45bffc0cea2755c"
    ),
    "evaluate/exemplar-1-2-3-xtree.json": (
        "c6c5557b33b96323c7ac2839c5c7934ebf986205061381a1dbc8c533f9d0458e"
    ),
    "evaluate/summary.csv": (
        "143538a1c0f92dec52f167ccc52b4e099a0fdb16b2cc5d7977968134312ffdbe"
    ),
    "evaluate/summary.json": (
        "29e63a7ce0f3d2aee314d05d009bcab8fbc2a9c1f276a3b167f956635b70ec48"
    ),
    "plans-alves.csv": (
        "0ebdd2b97636042dc3525a66c5cef7ac48505e57c89787431a90ad729ccb4ddf"
    ),
    "plans-xtree.json": (
        "c44241d9fd6552075d8032724a6e44f245cd19bce2aa1907fedfd65170be61e4"
    ),
    "thresholds-alves.json": (
        "6f200409fb3ccd602d6a6cb70f69aaa0e8464eae41d6fc5dae2977da104390fa"
    ),
    "thresholds-oliveira.json": (
        "47f89717c6d12fa54a3b29368becf164dee6055ba08575a12f93a9ee0a9f1d16"
    ),
    "thresholds-shatnawi.json": (
        "d35bc007ca289578f9214ea3ef278fdd726116c285405c45cab7eb3df43b4cbe"
    ),
    "tree.json": (
        "47ebf46da471585f4e7e9338324aa7f6f94c0a887b0d1359d805ee3aaa336185"
    ),
}


def _digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_every_output_keeps_its_bytes(exemplar_community_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == EXIT_OK, argv
    assert _digests(tmp_path / "out") == EXPECTED


def _plan_csv_rows(tmp_path, names):
    """Plan a release whose classes carry ``names`` and read the CSV back."""
    train = make_dataset(
        [make_record(f"t{i}", defects=int(i % 3 == 0), wmc=float(i), loc=float(10 * i))
         for i in range(40)]
    )
    test = make_dataset(
        [make_record(name, wmc=float(30 + i), loc=float(300 + i))
         for i, name in enumerate(names)],
        version="2",
    )
    write_csv(train, tmp_path / "train.csv")
    write_csv(test, tmp_path / "test.csv")
    out = tmp_path / "plans.csv"
    code = main(
        [
            "plan", "--planner", "xtree",
            "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"),
            "--out", str(out), "--format", "csv",
        ]
    )
    assert code == EXIT_OK
    with out.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_plan_csv_quotes_cells_that_need_it(tmp_path):
    names = ["org.A,Inner", 'org.B"Q', "org.C"]
    rows = _plan_csv_rows(tmp_path, names)
    assert rows[0] == ["class_name", *METRICS, "refactorings"]
    assert [len(row) for row in rows] == [len(METRICS) + 2] * (len(names) + 1)
    assert [row[0] for row in rows[1:]] == names


def test_plan_csv_quotes_a_bare_carriage_return(tmp_path):
    # csv.writer quotes only the characters of its line terminator, so a
    # cell holding a lone CR once split its row in two when read back.
    rows = _plan_csv_rows(tmp_path, ["A\rB"])
    assert [len(row) for row in rows] == [len(METRICS) + 2] * 2
    assert rows[1][0] == "A\rB"


def test_summary_csv_matches_summary_json(exemplar_community_dir, tmp_path):
    out_dir = tmp_path / "out"
    code = main(
        [
            "evaluate", "--planner", "all",
            "--project-dir", str(exemplar_community_dir / "exemplar"),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    rows = json.loads((out_dir / "summary.json").read_text())["rows"]
    with (out_dir / "summary.csv").open(newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(rows) == 4
    assert table == [
        {key: "" if value is None else str(value) for key, value in row.items()}
        for row in rows
    ]


# Text with control characters, non-ASCII letters and lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=()))
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan, -math.inf])
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """``_write_json`` has its own encoder; ``json.dumps`` is its oracle."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(TEXT, DOCUMENTS))
    @example(doc={"é\x00\u2028": [-0.0, 5e-324, math.nan, math.inf, -math.inf, 2**70,
                                    (), {}, [[]], ({"b": 1, "a": (True, None)},)]})
    def test_text_is_that_of_json_dumps(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        _write_json(path, doc)
        expected = json.dumps(dict(doc, schema_version="1"), indent=2, sort_keys=True)
        assert path.read_bytes() == (expected + "\n").encode("ascii")

    @pytest.mark.parametrize("doc", [
        {"a": {1: "x"}}, {"a": [{None: 0}]}, {"a": {("t",): 0}},
        {"a": object()}, {"a": [{1, 2}]}, {"a": b"bytes"},
    ])
    def test_a_non_str_key_or_unknown_object_is_a_type_error(self, tmp_path, doc):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "doc.json", doc)
        assert not list(tmp_path.iterdir())

    def test_writing_a_plan_document_leaves_no_garbage(self, tmp_path):
        # A reference cycle through the encoder would keep every chunk alive
        # until the next collection, after the file is written.
        history = tie_heavy_history()
        planner = make_planner("xtree").fit(pool_versions(history))
        plans = planner.plan_all(history.versions[3])
        doc = {"plans": [dict(p.to_dict(), refactorings=suggest_refactorings(p))
                         for p in plans]}
        gc.collect()
        gc.disable()
        try:
            _write_json(tmp_path / "plans.json", doc)
            assert gc.collect() == 0
        finally:
            gc.enable()


# Each list or tuple of a document may reach the writer as any of these.
STREAMS = {
    "list": list,
    "iter": iter,
    "map": lambda items: map(lambda item: item, items),
    "generator": lambda items: (item for item in items),
}


def _streamed(value, draw):
    """``value`` with every list and tuple swapped for a drawn kind of stream."""
    if isinstance(value, dict):
        return {key: _streamed(item, draw) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_streamed(item, draw) for item in value]
        return STREAMS[draw(st.sampled_from(sorted(STREAMS)))](items)
    return value


def plan_shaped(i: int) -> dict:
    """A fresh dict shaped like one entry of a plan document."""
    actions = {metric: {"action": "."} for metric in METRICS}
    actions["loc"] = {"action": "-", "target_low": 1.5 * i, "target_high": 2.5 * i,
                      "suggested": 2.0 * i}
    return {"class_name": f"org.example.Class{i}", "planner": "xtree",
            "actions": actions, "refactorings": ["Inline Temp", "Replace Assignment"]}


class TestStreamedJson:
    """An iterator is written as the list it yields, straight into the file."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(TEXT, DOCUMENTS), data=st.data())
    def test_text_is_that_of_json_dumps_of_the_lists(self, tmp_path, doc, data):
        path = tmp_path / "doc.json"
        _write_json(path, _streamed(doc, data.draw))
        expected = json.dumps(dict(doc, schema_version="1"), indent=2, sort_keys=True)
        assert path.read_bytes() == (expected + "\n").encode("ascii")

    def test_empty_iterators_at_any_depth(self, tmp_path):
        path = tmp_path / "doc.json"
        _write_json(path, {
            "a": iter([]), "b": (x for x in [iter(()), [], {}]),
            "c": map(dict, [[("d", iter([]))]]),
        })
        expected = {"a": [], "b": [[], [], {}], "c": [{"d": []}], "schema_version": "1"}
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        lambda: {"a": iter([{1, 2}])}, lambda: {"a": (x for x in [b"bytes"])},
        lambda: {"a": iter([{1: 0}])}, lambda: {"a": iter(["ok", iter([object()])])},
        lambda: {"a": range(3)}, lambda: {"a": {}.keys()},
    ], ids=["set", "bytes", "int-key", "object", "range", "keys-view"])
    def test_a_set_bytes_or_non_iterator_inside_is_a_type_error(self, tmp_path, doc):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "doc.json", doc())
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("failure", ["raise", "object"])
    def test_a_failure_mid_document_publishes_nothing(self, tmp_path, failure):
        # Enough entries come first that several batches reach the temp file.
        path = tmp_path / "plans.json"
        path.write_bytes(b"earlier bytes\n")

        def entries():
            yield from (plan_shaped(i) for i in range(1500))
            if failure == "raise":
                raise ValueError("no plan for class 1500")
            yield {"actions": {"loc": [1.0, {"x": object()}]}}

        with pytest.raises(ValueError if failure == "raise" else TypeError):
            _write_json(path, {"plans": entries()})
        assert path.read_bytes() == b"earlier bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_failed_plan_command_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        history = tie_heavy_history()
        for k, version in enumerate(history.versions[:2]):
            write_csv(version, tmp_path / f"v{k}.csv")
        calls = []

        def failing(plan):
            calls.append(plan)
            if len(calls) == 5:
                raise ValueError("no refactoring for this plan")
            return suggest_refactorings(plan)

        monkeypatch.setattr(planwise.cli, "suggest_refactorings", failing)
        for fmt in ("json", "csv"):
            calls.clear()
            out = tmp_path / "out" / f"plans.{fmt}"
            code = main(["plan", "--planner", "xtree", "--train", str(tmp_path / "v0.csv"),
                         "--test", str(tmp_path / "v1.csv"), "--out", str(out),
                         "--format", fmt])
            assert code == EXIT_FAILURE
            assert capsys.readouterr().err == "planwise: no refactoring for this plan\n"
            assert not list((tmp_path / "out").glob("*"))

    def test_a_plan_failing_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # Plans are made while the document is written: the fifth fails with
        # the temp file already open, and nothing is published.
        history = tie_heavy_history()
        for k, version in enumerate(history.versions[:2]):
            write_csv(version, tmp_path / f"v{k}.csv")
        out_dir = tmp_path / "out"
        plan = XTreePlanner.plan
        calls, files = [], []

        def failing(planner, record):
            calls.append(record)
            if len(calls) == 5:
                files.extend(p.name for p in out_dir.iterdir())
                raise ValueError("no plan for this class")
            return plan(planner, record)

        monkeypatch.setattr(XTreePlanner, "plan", failing)
        for fmt in ("json", "csv"):
            calls.clear()
            files.clear()
            code = main(["plan", "--planner", "xtree", "--train", str(tmp_path / "v0.csv"),
                         "--test", str(tmp_path / "v1.csv"),
                         "--out", str(out_dir / f"plans.{fmt}"), "--format", fmt])
            assert code == EXIT_FAILURE
            assert capsys.readouterr().err == "planwise: no plan for this class\n"
            assert len(calls) == 5
            assert [name.startswith(f".plans.{fmt}.") for name in files] == [True]
            assert not list(out_dir.iterdir())

    def test_writing_a_generator_plan_document_leaves_no_garbage(self, tmp_path):
        history = tie_heavy_history()
        planner = make_planner("xtree").fit(pool_versions(history))
        plans = planner.plan_all(history.versions[3])
        gc.collect()
        gc.disable()
        try:
            _write_json(tmp_path / "plans.json", {"plans": (
                dict(p.to_dict(), refactorings=suggest_refactorings(p)) for p in plans)})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_streamed_document_is_never_whole_in_memory(self, tmp_path):
        # Python 3.11, 4,000 entries (5.3 MB of JSON): a traced peak of about
        # 46 MiB when the entries were a list joined into one text, about
        # 0.2 MiB when they stream from a generator in batches.
        path = tmp_path / "plans.json"
        _write_json(path, {"plans": [plan_shaped(0)]})  # warm up lazy set-up
        tracemalloc.start()
        try:
            _write_json(path, {"plans": (plan_shaped(i) for i in range(4000))})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 5_000_000
        assert peak < 2 * 2**20


class TestStreamedCsv:
    def test_an_iterator_of_rows_writes_the_bytes_of_the_list(self, tmp_path):
        rows = [["name", "value"], ["a,b", 1.5], ["c\rd", None], ['e"f', 2]]
        _write_csv(tmp_path / "list.csv", rows)
        _write_csv(tmp_path / "iter.csv", (row for row in rows))
        assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        assert (tmp_path / "iter.csv").read_bytes().count(b"\n") == 4

    def test_a_failing_row_publishes_nothing(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"earlier bytes\n")

        def rows():
            yield from ([str(i), i] for i in range(20000))
            raise ValueError("bad row")

        with pytest.raises(ValueError):
            _write_csv(path, rows())
        assert path.read_bytes() == b"earlier bytes\n"
        assert list(tmp_path.iterdir()) == [path]


WRITERS = {
    "json": lambda path: _write_json(path, {"a": 1}),
    "csv": lambda path: _write_csv(path, [["a"], [1]]),
    "text": lambda path: _publish(path, lambda write: write("a\n")),
}


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_output_takes_the_mode_of_a_plain_open(tmp_path, umask, writer):
    # mkstemp creates its files 0600, so outputs were once private to the
    # owner whatever the umask.
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        WRITERS[writer](tmp_path / "out")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_output_takes_the_mode_of_a_plain_open_under_a_default_acl(tmp_path, writer):
    # A directory's default ACL takes the umask's place for files created in
    # it. A chmod to 0666 & ~umask once overrode it: 0o644 here, where open()
    # gives 0o664. The ACL is user::rwx group::rwx other::r-x (header version
    # 2, then tag, permissions and an undefined id per entry).
    acl = struct.pack("<I", 2) + b"".join(
        struct.pack("<HHI", tag, perm, 0xFFFFFFFF)
        for tag, perm in ((0x01, 0o7), (0x04, 0o7), (0x20, 0o5))
    )
    try:
        os.setxattr(tmp_path, "system.posix_acl_default", acl)
    except (AttributeError, OSError) as exc:
        pytest.skip(f"no default ACL here: {exc}")
    old = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        WRITERS[writer](tmp_path / "out")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o664


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_an_output_leaves_the_process_umask_alone(tmp_path, monkeypatch, writer):
    # The umask is process-wide, and reading it means setting it: each output
    # once set it twice.
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    WRITERS[writer](tmp_path / "out")
    assert list(tmp_path.iterdir()) == [tmp_path / "out"]
    assert (tmp_path / "out").read_bytes()


@pytest.mark.parametrize("squatter", ["file", "symlink"])
def test_a_taken_temp_name_publishes_nothing(tmp_path, monkeypatch, squatter):
    # The temp file is opened with O_EXCL, which opens no existing file and
    # follows no symlink, so a taken name fails instead of being written.
    monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
    victim = tmp_path / "victim"
    victim.write_bytes(b"victim bytes\n")
    taken = tmp_path / ".out.json.000102030405"
    if squatter == "file":
        taken.write_bytes(b"squatter bytes\n")
    else:
        taken.symlink_to(victim)
    with pytest.raises(FileExistsError):
        _write_json(tmp_path / "out.json", {"a": 1})
    assert not (tmp_path / "out.json").exists()
    assert victim.read_bytes() == b"victim bytes\n"
    if squatter == "file":
        assert taken.read_bytes() == b"squatter bytes\n"
    else:
        assert taken.is_symlink()
