import importlib.util
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planwise.datasets import (
    DECREASE,
    INCREASE,
    METRICS,
    NO_CHANGE,
    ClassRecord,
    Community,
    DatasetError,
    Project,
    diff_versions,
    load_community,
    load_csv,
    load_project,
    pool_versions,
    version_sort_key,
)
from planwise.planners import _screen

from conftest import make_dataset, make_project, make_record, write_csv


HEADER = "name,version,name," + ",".join(METRICS) + ",bug"


def write_rows(path, rows, header=HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def jureczko_row(cls, defects=0, project="ant", version="1.7", value=1.0):
    cells = [project, version, cls] + [str(value)] * len(METRICS) + [str(defects)]
    return ",".join(cells)


# Version labels mixing numbers, separators and text.
LABELS = st.text(alphabet="0123456789.-_abcfinlr", min_size=1, max_size=6)

# Cell texts that repeat across rows and columns, with pairs that parse to
# equal floats from distinct texts.
METRIC_TEXTS = st.sampled_from(
    ["0", "-0", "0.0", " 1", "1", "1.0", "1e3", "1000", "2.5", "-2.5", ".5", "0.5000"]
)
DEFECT_TEXTS = st.sampled_from(["0", "1", " 1", "1.0", "3", "3e0"])
GRIDS = st.lists(
    st.tuples(st.lists(METRIC_TEXTS, min_size=len(METRICS), max_size=len(METRICS)),
              DEFECT_TEXTS),
    min_size=1,
    max_size=8,
)


def write_grid(path, grid, version="1.7"):
    rows = [
        ",".join(["ant", version, f"C{n}", *cells, defects])
        for n, (cells, defects) in enumerate(grid)
    ]
    write_rows(path, rows)


def bench_corpus():
    """The benchmark's corpus generator, ``benchmarks/corpus.py``."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untagged_sort_key(label):
    """The earlier key, which fails to compare a number with text."""
    parts = re.split(r"(\d+)", label)
    return tuple(int(p) if p.isdigit() else p for p in parts if p != "")


class TestLoadCsv:
    def test_parses_records_and_identity_of_defects(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("A", defects=3), jureczko_row("B", defects=0)])
        ds = load_csv(path)
        assert ds.project == "ant"
        assert ds.version == "1.7"
        assert len(ds) == 2
        assert ds.by_name()["A"].defects == 3
        assert ds.by_name()["B"].metrics["avg_cc"] == 1.0

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path)

    def test_header_only_is_an_error(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(HEADER + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path)

    def test_defect_column_aliases(self, tmp_path):
        for alias in ("bug", "bugs", "defects"):
            path = tmp_path / f"{alias}.csv"
            header = "name," + ",".join(METRICS) + f",{alias}"
            write_rows(path, ["A," + ",".join(["2"] * len(METRICS)) + ",4"], header)
            assert load_csv(path).records[0].defects == 4

    def test_missing_defect_column_names_the_aliases(self, tmp_path):
        path = tmp_path / "v.csv"
        write_rows(path, ["A," + ",".join(["1"] * len(METRICS))], "name," + ",".join(METRICS))
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: missing defect column (one of bug, bugs, defects)"

    def test_a_row_with_too_few_cells_is_rejected(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("A"), jureczko_row("B").rsplit(",", 1)[0]])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: row 3 has too few cells"

    def test_an_empty_class_name_is_rejected(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("A"), jureczko_row("B"), jureczko_row(" ")])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: row 4 has empty class name"

    def test_metric_names_match_case_insensitively(self, tmp_path):
        path = tmp_path / "v.csv"
        header = "Name," + ",".join(m.upper() for m in METRICS) + ",Bug"
        write_rows(path, ["A," + ",".join(["2"] * len(METRICS)) + ",1"], header)
        assert load_csv(path).records[0].metrics["wmc"] == 2.0

    def test_missing_metric_column_names_it(self, tmp_path):
        path = tmp_path / "v.csv"
        header = "name," + ",".join(m for m in METRICS if m != "cbo") + ",bug"
        write_rows(path, ["A," + ",".join(["1"] * 19) + ",0"], header)
        with pytest.raises(DatasetError, match="cbo"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "v.csv"
        bad = ["ant", "1.7", "A"] + ["1"] * len(METRICS) + ["0"]
        bad[3] = "oops"  # wmc cell
        write_rows(path, [",".join(bad)])
        with pytest.raises(DatasetError, match="row 2.*wmc"):
            load_csv(path)

    @pytest.mark.parametrize(
        "column, cell, problem",
        [
            ("wmc", "nan", "non-finite"),
            ("cbo", "inf", "non-finite"),
            ("bug", "inf", "non-finite"),
            ("bug", "nan", "non-finite"),
            ("wmc", "x", "non-numeric"),
        ],
    )
    def test_bad_cell_names_file_row_and_column(self, tmp_path, column, cell, problem):
        path = tmp_path / "ant-1.7.csv"
        bad = ["ant", "1.7", "B"] + ["1"] * len(METRICS) + ["0"]
        bad[HEADER.split(",").index(column)] = cell
        write_rows(path, [jureczko_row("A"), ",".join(bad)])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == (
            f"{path}: row 3: {problem} value {cell!r} in column {column!r}"
        )

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        text = HEADER + "\n" + jureczko_row("Café") + "\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value).startswith(f"{path}: not UTF-8 text: ")

    def test_cell_over_the_csv_field_limit_names_file_and_row(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("A"), jureczko_row("x" * 200_000)])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value).startswith(f"{path}: row 3: field larger than")

    def test_rows_are_numbered_by_physical_line(self, tmp_path):
        # A quoted class name spans lines 2-3, so the bad avg_cc cell of the
        # next record sits on line 4, as a csv.Error would report it.
        path = tmp_path / "ant-1.7.csv"
        bad = jureczko_row("C").split(",")
        bad[HEADER.split(",").index("avg_cc")] = "x"
        write_rows(path, [jureczko_row('"A\nB"'), ",".join(bad)])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == (
            f"{path}: row 4: non-numeric value 'x' in column 'avg_cc'"
        )

    def test_negative_metrics_stay_legal(self, tmp_path):
        path = tmp_path / "v.csv"
        write_rows(path, [jureczko_row("A", value=-2.5)])
        assert load_csv(path).records[0].metrics["wmc"] == -2.5

    def test_duplicate_class_name_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        write_rows(path, [jureczko_row("A"), jureczko_row("A")])
        with pytest.raises(DatasetError, match="duplicate class name"):
            load_csv(path)

    @pytest.mark.parametrize("twin", ["WMC ", "wmc", " Wmc"])
    def test_a_metric_named_twice_is_rejected(self, tmp_path, twin):
        path = tmp_path / "v.csv"
        header = "name," + ",".join(METRICS) + f",{twin},bug"
        write_rows(path, ["A," + ",".join(["1"] * len(METRICS)) + ",9,0"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: column 'wmc' appears more than once"

    @pytest.mark.parametrize("columns", [("bug", "bugs"), ("defects", "bug"), ("bug", "Bug")])
    def test_two_defect_columns_are_rejected(self, tmp_path, columns):
        path = tmp_path / "v.csv"
        header = "name," + ",".join(METRICS) + "," + ",".join(columns)
        write_rows(path, ["A," + ",".join(["1"] * len(METRICS)) + ",0,3"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"{path}: defect count appears in more than one column "
            f"({columns[0]!r}, {columns[1]!r})"
        )

    @pytest.mark.parametrize("twin", ["version", " Version"])
    def test_a_second_version_column_is_rejected(self, tmp_path, twin):
        path = tmp_path / "v.csv"
        header = "name,version," + ",".join(METRICS) + f",bug,{twin}"
        write_rows(path, ["A,1.0," + ",".join(["1"] * len(METRICS)) + ",0,2.0"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: column 'version' appears more than once"

    @pytest.mark.parametrize("names, cells", [
        ("name,name,name", "proj,mid,Cls"),
        ("name,name.1,name", "proj,mid,Cls"),
        ("name,version,name,name", "proj,1.0,mid,Cls"),
    ])
    def test_more_than_two_name_columns_are_rejected(self, tmp_path, names, cells):
        path = tmp_path / "v.csv"
        header = names + "," + ",".join(METRICS) + ",bug"
        write_rows(path, [cells + "," + ",".join(["1"] * len(METRICS)) + ",0"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: more than two 'name' columns"

    def test_name_dot_one_is_the_class_column(self, tmp_path):
        path = tmp_path / "v-2.0.csv"
        header = "name,name.1," + ",".join(METRICS) + ",bug"
        write_rows(path, ["proj,Cls," + ",".join(["1"] * len(METRICS)) + ",0"], header)
        ds = load_csv(path)
        assert (ds.project, ds.records[0].class_name) == ("proj", "Cls")

    def test_a_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        path = tmp_path / "v-2.0.csv"
        header = "\ufeffname," + ",".join(METRICS) + ",bug"
        write_rows(path, ["A," + ",".join(["1"] * len(METRICS)) + ",3"], header)
        ds = load_csv(path)
        assert (ds.project, ds.version, ds.records[0].class_name) == ("v", "2.0", "A")
        assert ds.records[0].defects == 3

    def test_a_byte_order_mark_keeps_the_jureczko_project_column(self, tmp_path):
        path = tmp_path / "jbom.csv"
        write_rows(path, [jureczko_row("A", defects=2)], header="\ufeff" + HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path)
        assert (ds.project, ds.version, ds.records[0].class_name) == ("ant", "1.7", "A")

    def test_the_jureczko_layout_names_name_twice(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("A", defects=2)], header=HEADER)
        assert HEADER.split(",").count("name") == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path)
        assert (ds.project, ds.records[0].class_name, ds.records[0].defects) == ("ant", "A", 2)

    def test_a_project_column_names_the_project(self, tmp_path):
        path = tmp_path / "x-9.9.csv"
        header = "project,version,name," + ",".join(METRICS) + ",bug"
        write_rows(path, [jureczko_row("A", defects=2)], header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path)
        assert (ds.project, ds.version, ds.records[0].class_name) == ("ant", "1.7", "A")

    @pytest.mark.parametrize("prefix", ["project,name,name", "name,Project,name.1",
                                        "name,name,project"])
    def test_a_project_column_beside_two_name_columns_is_rejected(self, tmp_path, prefix):
        # Both the project column and the first name column would name the project.
        path = tmp_path / "x-9.9.csv"
        header = prefix + "," + ",".join(METRICS) + ",bug"
        write_rows(path, ["ant,ant,A," + ",".join(["1"] * len(METRICS)) + ",0"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == (
            f"{path}: a 'project' column and two 'name' columns both name the project"
        )

    def test_a_second_project_column_is_rejected(self, tmp_path):
        path = tmp_path / "x-9.9.csv"
        header = "project,name," + ",".join(METRICS) + ",bug,Project"
        write_rows(path, ["ant,A," + ",".join(["1"] * len(METRICS)) + ",0,ant"], header)
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: column 'project' appears more than once"

    def test_extra_columns_warn_but_load(self, tmp_path):
        path = tmp_path / "v.csv"
        header = "name,mystery," + ",".join(METRICS) + ",bug"
        write_rows(path, ["A,zzz," + ",".join(["1"] * len(METRICS)) + ",0"], header)
        with pytest.warns(UserWarning, match="mystery"):
            ds = load_csv(path)
        assert len(ds) == 1

    def test_negative_defect_count_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        write_rows(path, [jureczko_row("A", defects=-1)])
        with pytest.raises(DatasetError, match="non-negative"):
            load_csv(path)

    def test_project_and_version_fall_back_to_filename(self, tmp_path):
        path = tmp_path / "camel-1.6.csv"
        header = "name," + ",".join(METRICS) + ",bug"
        write_rows(path, ["A," + ",".join(["1"] * len(METRICS)) + ",0"], header)
        ds = load_csv(path)
        assert ds.project == "camel"
        assert ds.version == "1.6"

    @given(GRIDS)
    @settings(max_examples=150, deadline=None)
    def test_values_match_a_per_cell_parser(self, tmp_path_factory, grid):
        path = tmp_path_factory.mktemp("grid") / "ant-1.7.csv"
        write_grid(path, grid)
        ds = load_csv(path)
        assert len(ds) == len(grid)
        for rec, (cells, defects) in zip(ds.records, grid):
            assert rec.defects == int(float(defects))
            for metric, cell in zip(METRICS, cells):
                value, want = rec.metrics[metric], float(cell)
                assert type(value) is float
                assert value == want
                assert math.copysign(1.0, value) == math.copysign(1.0, want)

    @given(GRIDS)
    @settings(max_examples=100, deadline=None)
    def test_equal_cell_texts_share_one_float(self, tmp_path_factory, grid):
        path = tmp_path_factory.mktemp("grid") / "ant-1.7.csv"
        write_grid(path, grid)
        ds = load_csv(path)
        floats = {id(v) for rec in ds.records for v in rec.metrics.values()}
        texts = {cell for cells, _ in grid for cell in cells}
        assert len(floats) == len(texts)

    def test_a_bad_text_on_two_rows_names_the_first(self, tmp_path):
        path = tmp_path / "ant-1.7.csv"
        rows = [jureczko_row(name).split(",") for name in "ZAB"]
        for cells in rows[1:]:
            cells[HEADER.split(",").index("cbo")] = "x"
        write_rows(path, [",".join(cells) for cells in rows])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == (
            f"{path}: row 3: non-numeric value 'x' in column 'cbo'"
        )

    @pytest.mark.parametrize("bad, first", [
        ({"wmc": "x", "cbo": "inf", "bug": "y"}, ("wmc", "x", "non-numeric")),
        ({"rfc": "x", "cbo": "nan"}, ("cbo", "nan", "non-finite")),
        ({"amc": "-inf", "bug": "nan"}, ("amc", "-inf", "non-finite")),
    ])
    def test_a_row_of_bad_texts_names_its_first_bad_cell(self, tmp_path, bad, first):
        path = tmp_path / "ant-1.7.csv"
        cells = jureczko_row("B").split(",")
        for column, text in bad.items():
            cells[HEADER.split(",").index(column)] = text
        write_rows(path, [jureczko_row("A"), ",".join(cells)])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        column, text, problem = first
        assert str(excinfo.value) == (
            f"{path}: row 3: {problem} value {text!r} in column {column!r}"
        )

    @pytest.mark.parametrize("bad, first", [
        ({"avg_cc": "x", "wmc": "y"}, ("avg_cc", "x", "non-numeric")),
        ({"wmc": "x", "avg_cc": "inf"}, ("avg_cc", "inf", "non-finite")),
        ({"bug": "y", "avg_cc": "x", "wmc": "nan"}, ("bug", "y", "non-numeric")),
        ({"cbo": "x", "amc": "y"}, ("amc", "y", "non-numeric")),
    ])
    def test_a_reordered_header_names_the_leftmost_bad_cell(self, tmp_path, bad, first):
        # The defect column first, then the metrics last to first, so the
        # leftmost bad cell is not the first one in METRICS order.
        header = ["name", "bug", *reversed(METRICS)]
        cells = ["B", "0"] + ["1.0"] * len(METRICS)
        for column, text in bad.items():
            cells[header.index(column)] = text
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, ["A,0" + ",1.0" * len(METRICS), ",".join(cells)],
                   header=",".join(header))
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        column, text, problem = first
        assert str(excinfo.value) == (
            f"{path}: row 3: {problem} value {text!r} in column {column!r}"
        )

    @pytest.mark.parametrize("where", [(0,), (1,), (3,), (0, 1, 2, 3)])
    def test_whitespace_only_rows_are_skipped(self, tmp_path, where):
        # Before the first record, between records and after the last.
        rows = [jureczko_row(name, defects=k) for k, name in enumerate("ABC")]
        padded = list(rows)
        for at in sorted(where, reverse=True):
            padded[at:at] = ["", " ", "\t, ,  ", ",,"]
        plain_path, padded_path = tmp_path / "a" / "ant-1.7.csv", tmp_path / "b" / "ant-1.7.csv"
        for path, lines in ((plain_path, rows), (padded_path, padded)):
            path.parent.mkdir()
            write_rows(path, lines)
        assert load_csv(padded_path) == load_csv(plain_path)
        # Rows keep their physical numbers: the skipped lines count.
        bad = jureczko_row("D").replace("1.0", "x", 1)
        write_rows(padded_path, padded + [bad])
        with pytest.raises(DatasetError, match=f"row {len(padded) + 2}: non-numeric value 'x'"):
            load_csv(padded_path)

    @pytest.mark.parametrize("blank", [("version",), ("name",), ("name", "version")])
    def test_blank_label_cells_fall_back_to_the_file_name(self, tmp_path, blank):
        path = tmp_path / "camel-1.6.csv"
        cells = jureczko_row("A").split(",")
        for column in blank:
            cells[HEADER.split(",").index(column)] = " "
        write_rows(path, [",".join(cells)])
        ds = load_csv(path)
        assert ds.project == ("camel" if "name" in blank else "ant")
        assert ds.version == ("1.6" if "version" in blank else "1.7")

    def test_releases_with_blank_version_cells_load_in_label_order(self, tmp_path):
        paths = [tmp_path / "ant-1.3.csv", tmp_path / "ant-1.4.csv"]
        for path in paths:
            write_rows(path, [jureczko_row("A", version="")])
        project = load_project(paths[::-1])
        assert [v.version for v in project.versions] == ["1.3", "1.4"]

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([("A", "ant", "1.3"), ("B", "ant", "1.4"), ("C", "camel", "1.3")],
             "row 3: version label '1.4' differs from '1.3'"),
            ([("A", "ant", "1.3"), ("B", "ant", "1.3"), ("C", "camel", "1.3")],
             "row 4: project label 'camel' differs from 'ant'"),
            ([("A", "ant", ""), ("B", "ant", "1.4"), ("C", " ant ", "1.5")],
             "row 4: version label '1.5' differs from '1.4'"),
        ],
    )
    def test_rows_naming_another_release_are_rejected(self, tmp_path, rows, error):
        path = tmp_path / "mix-9.9.csv"
        write_rows(path, [jureczko_row(cls, project=project, version=version)
                          for cls, project, version in rows])
        with pytest.raises(DatasetError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: {error} in an earlier row"

    def test_a_blank_first_label_takes_the_next_rows_label(self, tmp_path):
        path = tmp_path / "mix-9.9.csv"
        rows = [("A", " ", ""), ("B", "ant", "1.4"), ("C", "", " 1.4"), ("D", "ant ", "")]
        write_rows(path, [jureczko_row(cls, project=project, version=version)
                          for cls, project, version in rows])
        ds = load_csv(path)
        assert (ds.project, ds.version, len(ds)) == ("ant", "1.4", 4)

    def test_roundtrip_is_identity_on_records(self, tmp_path):
        records = [
            make_record("A", defects=2, loc=120.5, wmc=7, avg_cc=1.25),
            make_record("B", defects=0, rfc=33, cam=0.4375),
        ]
        ds = make_dataset(records, project="p", version="2")
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        again = load_csv(out)
        assert again.records == ds.records


# Header layouts: the Jureczko one (its first name column names the
# project), one with a project column, and one with neither, which takes
# both labels from the file name. "mystery" is an extra column.
LAYOUTS = (
    ("version", "name", "name", *METRICS, "bug", "mystery"),
    ("project", "version", "name", *METRICS, "defects", "mystery"),
    ("name", *METRICS, "bugs", "mystery"),
)
SPACES = st.sampled_from(["", " ", "  "])


def spellings(name):
    """``name`` with any of its letters upper-cased and spaces around it."""
    return st.tuples(
        SPACES, st.lists(st.booleans(), min_size=len(name), max_size=len(name)), SPACES
    ).map(lambda t: t[0] + "".join(c.upper() if up else c for c, up in zip(name, t[1])) + t[2])


def layout_rows(layout, grid):
    """One list of cells per grid entry, in ``layout``'s column order."""
    rows = []
    for n, (cells, defects) in enumerate(grid):
        by_column = dict(zip(METRICS, cells), project="ant", version="1.7",
                         bug=defects, bugs=defects, defects=defects, mystery="zzz")
        names = iter(["ant", f"C{n}"] if layout.count("name") == 2 else [f"C{n}"])
        rows.append([next(names) if c == "name" else by_column[c] for c in layout])
    return rows


def load_quietly(folder, header, rows, prefix=""):
    """``load_csv`` of ``folder/x-9.9.csv`` holding ``header`` and ``rows``,
    ignoring the extra-columns warning."""
    path = folder / "x-9.9.csv"
    write_rows(path, [",".join(row) for row in rows], prefix + ",".join(header))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return load_csv(path)


class TestHeaderContract:
    """Each column's role comes from its name alone: not from its position,
    case or surrounding spaces, nor from a byte-order mark."""

    @given(layout=st.sampled_from(LAYOUTS), grid=GRIDS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_column_order_loads_the_same_dataset(self, tmp_path_factory, layout, grid, data):
        order = data.draw(st.permutations(range(len(layout))))
        names = iter(i for i, column in enumerate(layout) if column == "name")
        order = [next(names) if layout[i] == "name" else i for i in order]
        rows = layout_rows(layout, grid)
        want = load_quietly(tmp_path_factory.mktemp("layout"), layout, rows)
        got = load_quietly(tmp_path_factory.mktemp("permuted"), [layout[i] for i in order],
                           [[row[i] for i in order] for row in rows])
        assert got == want
        assert len(want) == len(grid)
        assert (want.project, want.version) == (
            ("x", "9.9") if layout == LAYOUTS[2] else ("ant", "1.7"))

    # A second name column is legal in the minimal layout (that makes the
    # Jureczko one), so only the two layouts that name the project are used.
    @given(layout=st.sampled_from(LAYOUTS[:2]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_second_column_of_any_role_is_an_error(self, tmp_path_factory, layout, data):
        twin = data.draw(st.sampled_from([i for i, c in enumerate(layout) if c != "mystery"]))
        at = data.draw(st.integers(0, len(layout)))
        header = [*layout[:at], data.draw(spellings(layout[twin])), *layout[at:]]
        (row,) = layout_rows(layout, [(["1"] * len(METRICS), "0")])
        folder = tmp_path_factory.mktemp("twin")
        with pytest.raises(DatasetError) as info:
            load_quietly(folder, header, [[*row[:at], row[twin], *row[at:]]])
        assert str(info.value).startswith(f"{folder / 'x-9.9.csv'}: ")

    @given(layout=st.sampled_from(LAYOUTS), grid=GRIDS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_case_and_surrounding_spaces_change_nothing(self, tmp_path_factory, layout, grid, data):
        header = [data.draw(spellings(column)) for column in layout]
        rows = layout_rows(layout, grid)
        assert load_quietly(tmp_path_factory.mktemp("spelled"), header, rows) == (
            load_quietly(tmp_path_factory.mktemp("layout"), layout, rows))

    @given(layout=st.sampled_from(LAYOUTS), grid=GRIDS)
    @settings(max_examples=50, deadline=None)
    def test_a_byte_order_mark_changes_nothing(self, tmp_path_factory, layout, grid):
        rows = layout_rows(layout, grid)
        assert load_quietly(tmp_path_factory.mktemp("bom"), layout, rows, "\ufeff") == (
            load_quietly(tmp_path_factory.mktemp("layout"), layout, rows))


class TestSharedCells:
    """``load_project`` shares equal cell texts and class names across the
    releases of one project, through tables that die with the call."""

    @staticmethod
    def write_releases(root, grids):
        paths = [root / f"ant-1.{k}.csv" for k in range(len(grids))]
        for k, (path, grid) in enumerate(zip(paths, grids)):
            write_grid(path, grid, version=f"1.{k}")
        return paths

    @staticmethod
    def assert_shared(project, grids):
        floats: dict[str, float] = {}
        names: dict[str, str] = {}
        for version, grid in zip(project.versions, grids):
            assert len(version) == len(grid)
            for rec, (cells, defects) in zip(version.records, grid):
                assert rec.defects == int(float(defects))
                assert names.setdefault(rec.class_name, rec.class_name) is rec.class_name
                for value, cell in zip(rec.values, cells):
                    want = float(cell)
                    assert type(value) is float
                    assert value == want
                    assert math.copysign(1.0, value) == math.copysign(1.0, want)
                    assert floats.setdefault(cell, value) is value
        distinct = {id(v) for version in project.versions
                    for rec in version.records for v in rec.values}
        assert len(distinct) == len(floats)

    def test_releases_share_equal_texts_and_names(self, tmp_path):
        zero, one = ["0"] * len(METRICS), ["1"] * len(METRICS)
        grids = [
            [(zero, "0"), (["-0"] * len(METRICS), "1")],
            [(one, "1"), (zero, "0"), (["1.0"] * len(METRICS), "1.0")],
            [(["-0", "1.0", *zero[2:]], "0"), (one, "0")],
        ]
        project = load_project(self.write_releases(tmp_path, grids))
        self.assert_shared(project, grids)
        first, second, third = project.versions
        assert first.records[0].values[0] is second.records[1].values[0]
        assert first.records[1].values[0] is third.records[0].values[0]
        assert first.records[0].values[0] is not first.records[1].values[0]
        assert second.records[0].values[0] is not second.records[2].values[0]
        assert first.records[0].class_name is second.records[0].class_name
        assert first.records[1].class_name is third.records[1].class_name

    @given(st.lists(GRIDS, min_size=2, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_values_match_a_per_cell_parser_across_releases(self, tmp_path_factory, grids):
        root = tmp_path_factory.mktemp("releases")
        self.assert_shared(load_project(self.write_releases(root, grids)), grids)

    def test_no_table_outlives_a_load(self, tmp_path):
        paths = [tmp_path / "ant-1.3.csv", tmp_path / "ant-1.4.csv"]
        for path, version in zip(paths, ("1.3", "1.4")):
            write_rows(path, [jureczko_row(f"Cls{i}", version=version, value=0.4351)
                              for i in range(3)])

        def objects(*datasets):
            return ({id(v) for ds in datasets for r in ds.records for v in r.values},
                    {id(r.class_name) for ds in datasets for r in ds.records})

        first, second = load_csv(paths[0]), load_csv(paths[0])
        for a, b in zip(objects(first), objects(second)):
            assert len(a) == len(b) == len(a - b)
        first, second = load_project(paths), load_project(paths)
        assert first == second
        for a, b in zip(objects(*first.versions), objects(*second.versions)):
            assert len(a) == len(b) == len(a - b)
        assert len(objects(*first.versions)[0]) == 1  # every cell holds 0.4351


class TestValidation:
    def test_record_requires_all_metrics(self):
        metrics = {m: 1.0 for m in METRICS if m != "loc"}
        with pytest.raises(DatasetError, match="loc"):
            ClassRecord.from_metrics("A", metrics, 0)

    @pytest.mark.parametrize(
        "values", [{m: 1.0 for m in METRICS}, (1.0,) * (len(METRICS) - 1)],
        ids=["a dict", "19 values"],
    )
    def test_record_takes_only_a_tuple_of_all_values(self, values):
        with pytest.raises(DatasetError, match="'A'"):
            ClassRecord("A", values, 0)

    def test_from_metrics_keeps_metrics_order(self):
        named = {m: float(i) for i, m in enumerate(reversed(METRICS))}
        rec = ClassRecord.from_metrics("A", {**named, "extra": 5.0}, 0)
        assert rec.values == tuple(named[m] for m in METRICS)
        metrics = rec.metrics
        assert list(metrics) == list(METRICS)
        assert metrics is not rec.metrics
        assert all(a is b for a, b in zip(metrics.values(), rec.values))

    def test_a_loaded_record_cannot_change(self, tmp_path):
        # The screen and diff memos are valid only while records stay as
        # they were: the dict a record hands out must be a copy.
        path = bench_corpus().generate(tmp_path, seed=0, projects={"xalan"})
        path = path / "xalan" / "xalan-2.7.csv"
        ds = load_csv(path)
        screen = _screen(ds, 0.05)
        rec = ds.records[0]
        before = (repr(rec), hash(rec))
        rec.metrics["wmc"] = 99.0
        assert (repr(rec), hash(rec)) == before
        assert ds.records == load_csv(path).records
        assert _screen(ds, 0.05) == screen == _screen(make_dataset(ds.records), 0.05)

    def test_record_holds_no_instance_dict(self):
        rec = make_record("A")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(rec, "note", "extra")

    def test_a_row_with_more_cells_than_the_header_is_rejected(self, tmp_path):
        # An unquoted decimal comma splits amc's "12,5" in two; read by
        # header position, the row would load 20 defects instead of 1.
        cells = jureczko_row("org.B", defects=1, value=20.0).split(",")
        amc = HEADER.split(",").index("amc")
        cells[amc:amc + 1] = ["12", "5"]
        path = tmp_path / "ant-1.7.csv"
        write_rows(path, [jureczko_row("org.A"), ",".join(cells)])
        with pytest.raises(DatasetError, match="row 3 has more cells than the header"):
            load_csv(path)

    def test_trailing_blank_cells_are_accepted(self, tmp_path):
        plain, padded = tmp_path / "a" / "ant-1.7.csv", tmp_path / "b" / "ant-1.7.csv"
        for path, tail in ((plain, ""), (padded, ", ,")):
            path.parent.mkdir()
            write_rows(path, [jureczko_row("org.A", defects=1) + tail])
        assert load_csv(padded) == load_csv(plain)

    def test_a_record_with_negative_defects_is_rejected(self):
        with pytest.raises(DatasetError) as excinfo:
            make_record("A", defects=-1)
        assert str(excinfo.value) == "record 'A' has negative defects"

    def test_a_project_without_versions_is_rejected(self):
        with pytest.raises(DatasetError) as excinfo:
            Project("ant", ())
        assert str(excinfo.value) == "project 'ant' has no versions"

    def test_load_project_needs_a_file(self):
        with pytest.raises(DatasetError) as excinfo:
            load_project([])
        assert str(excinfo.value) == "no version CSVs given"

    def test_a_community_needs_a_subdirectory_with_csvs(self, tmp_path):
        (tmp_path / "empty").mkdir()
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "readme.txt").write_text("no data\n")
        write_rows(tmp_path / "ant-1.7.csv", [jureczko_row("A")])  # not in a subdirectory
        with pytest.raises(DatasetError) as excinfo:
            load_community(tmp_path)
        assert str(excinfo.value) == f"{tmp_path}: no project subdirectories with CSV files"

    def test_a_community_skips_subdirectories_without_csvs(self, tmp_path):
        for name in ("ant", "camel"):
            (tmp_path / name).mkdir()
        (tmp_path / "ant" / "notes.txt").write_text("no data\n")
        write_rows(tmp_path / "camel" / "camel-1.6.csv", [jureczko_row("A", project="camel",
                                                                       version="1.6")])
        community = load_community(tmp_path)
        assert [p.name for p in community.projects] == ["camel"]
        assert [v.version for v in community.get("camel").versions] == ["1.6"]

    def test_dataset_rejects_duplicates(self):
        with pytest.raises(DatasetError, match="duplicate"):
            make_dataset([make_record("A"), make_record("A")])

    def test_community_requires_projects(self):
        with pytest.raises(DatasetError):
            Community(())

    def test_community_get_names_the_projects_it_has(self):
        ant = make_project([make_dataset([make_record("A")])], name="ant")
        ivy = make_project([make_dataset([make_record("B")])], name="ivy")
        community = Community((ant, ivy))
        assert community.get("ivy") is ivy
        with pytest.raises(DatasetError) as excinfo:
            community.get("camel")
        assert str(excinfo.value) == "no project 'camel' in the community (have: ant, ivy)"

    def test_community_rejects_duplicate_project_names(self):
        # A report would list "ant" twice but score it once.
        ant = make_project([make_dataset([make_record("A")])], name="ant")
        ivy = make_project([make_dataset([make_record("B")])], name="ivy")
        with pytest.raises(DatasetError, match="duplicate project names.*'ant', 'ant'"):
            Community((ant, Project("ant", ant.versions), ivy))


class TestDiffVersions:
    def test_identical_versions_are_all_no_change(self):
        ds = make_dataset([make_record("A", loc=10), make_record("B", loc=20)])
        diff = diff_versions(ds, ds)
        assert set(diff) == {"A", "B"}
        assert all(a == NO_CHANGE for vec in diff.values() for a in vec.values())

    def test_increase_detected_with_zero_epsilon(self):
        old = make_dataset([make_record("A", loc=100)])
        new = make_dataset([make_record("A", loc=150)], version="2")
        assert diff_versions(old, new)["A"]["loc"] == INCREASE

    def test_epsilon_suppresses_small_moves(self):
        old = make_dataset([make_record("A", loc=100)])
        new = make_dataset([make_record("A", loc=104)], version="2")
        assert diff_versions(old, new, epsilon=0.05)["A"]["loc"] == NO_CHANGE
        assert diff_versions(old, new, epsilon=0.0)["A"]["loc"] == INCREASE

    def test_disjoint_class_sets_give_empty_map(self):
        old = make_dataset([make_record("A")])
        new = make_dataset([make_record("B")], version="2")
        assert diff_versions(old, new) == {}

    def test_three_class_hand_grid(self):
        # C1: loc up, wmc down; C2: untouched; C3 only in the old release.
        old = make_dataset(
            [
                make_record("C1", loc=100, wmc=8, rfc=5),
                make_record("C2", loc=50),
                make_record("C3", loc=10),
            ]
        )
        new = make_dataset(
            [
                make_record("C1", loc=130, wmc=6, rfc=5),
                make_record("C2", loc=50),
                make_record("C4", loc=10),
            ],
            version="2",
        )
        diff = diff_versions(old, new)
        assert set(diff) == {"C1", "C2"}
        expected_c1 = {m: NO_CHANGE for m in METRICS}
        expected_c1["loc"] = INCREASE
        expected_c1["wmc"] = DECREASE
        assert diff["C1"] == expected_c1
        assert diff["C2"] == {m: NO_CHANGE for m in METRICS}

    @given(
        loc_old=st.floats(0, 1e6, allow_nan=False),
        loc_new=st.floats(0, 1e6, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_antisymmetric_under_swap(self, loc_old, loc_new):
        old = make_dataset([make_record("A", loc=loc_old)])
        new = make_dataset([make_record("A", loc=loc_new)], version="2")
        forward = diff_versions(old, new)["A"]
        backward = diff_versions(new, old)["A"]
        flip = {INCREASE: DECREASE, DECREASE: INCREASE, NO_CHANGE: NO_CHANGE}
        assert backward == {m: flip[a] for m, a in forward.items()}


    @pytest.mark.parametrize(
        "before, after, expected",
        [(-10.0, -10.0, NO_CHANGE), (-10.0, -10.5, NO_CHANGE),
         (-10.0, -12.0, DECREASE), (-10.0, -8.0, INCREASE)],
    )
    def test_negative_metric_bounds_keep_their_direction(self, before, after, expected):
        old = make_dataset([make_record("A", wmc=before)])
        new = make_dataset([make_record("A", wmc=after)], version="2")
        assert diff_versions(old, new, epsilon=0.1)["A"]["wmc"] == expected

    @given(
        before=st.floats(allow_nan=False, allow_infinity=False),
        after=st.floats(allow_nan=False, allow_infinity=False),
        epsilon=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300)
    def test_direction_never_contradicts_the_values(self, before, after, epsilon):
        old = make_dataset([make_record("A", wmc=before)])
        new = make_dataset([make_record("A", wmc=after)], version="2")
        action = diff_versions(old, new, epsilon)["A"]["wmc"]
        if action == INCREASE:
            assert after > before
        elif action == DECREASE:
            assert after < before
        if after == before:
            assert action == NO_CHANGE

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_or_negative_epsilon_is_rejected(self, epsilon):
        # A NaN or infinite tolerance would mark every move as no change.
        ds = make_dataset([make_record("A", loc=10)])
        with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
            diff_versions(ds, ds, epsilon)


class TestPoolingAndOrdering:
    def test_version_sort_key_orders_numerically(self):
        labels = ["1.10", "1.2", "1.9"]
        assert sorted(labels, key=version_sort_key) == ["1.2", "1.9", "1.10"]

    def test_load_project_orders_by_version(self, tmp_path):
        header = "name," + ",".join(METRICS) + ",bug"
        for version in ("1.10", "1.2"):
            write_rows(
                tmp_path / f"p-{version}.csv",
                ["A," + ",".join(["1"] * len(METRICS)) + ",0"],
                header,
            )
        project = load_project(sorted(tmp_path.glob("*.csv")))
        assert [v.version for v in project.versions] == ["1.2", "1.10"]

    def test_numbers_sort_before_text_at_the_same_position(self):
        labels = ["final", "1.3", "rc1", "1.3a", "1.3.1", "2"]
        assert sorted(labels, key=version_sort_key) == [
            "1.3", "1.3.1", "1.3a", "2", "final", "rc1",
        ]

    @given(st.lists(LABELS, min_size=2, max_size=6))
    @settings(max_examples=300)
    def test_every_label_list_sorts_and_comparable_pairs_keep_their_order(
        self, labels
    ):
        sorted(labels, key=version_sort_key)  # the untagged key raised TypeError
        for a in labels:
            for b in labels:
                try:
                    before = untagged_sort_key(a) < untagged_sort_key(b)
                except TypeError:
                    continue
                assert (version_sort_key(a) < version_sort_key(b)) == before, (a, b)

    def test_two_releases_with_one_label_name_both_files(self, tmp_path):
        for stem in ("ant-first", "ant-second"):
            write_rows(tmp_path / f"{stem}.csv", [jureczko_row("A", version="1.4")])
        paths = sorted(tmp_path.glob("*.csv"))
        with pytest.raises(DatasetError) as info:
            load_project(paths)
        assert str(info.value) == (
            f"{paths[0]} and {paths[1]} both hold release '1.4'"
        )

    def test_labels_that_sort_equal_are_rejected(self, tmp_path):
        paths = [tmp_path / "ant-a.csv", tmp_path / "ant-b.csv"]
        for path, version in zip(paths, ("2.0", "2.00")):
            write_rows(path, [jureczko_row("A", version=version)])
        with pytest.raises(DatasetError) as info:
            load_project(paths[::-1])
        assert str(info.value) == (
            f"{paths[1]} and {paths[0]} hold releases '2.00' and '2.0', "
            "which sort equal"
        )

    def test_unlabelled_files_load_in_the_order_given(self, tmp_path):
        header = "name," + ",".join(METRICS) + ",bug"
        paths = [tmp_path / "beta.csv", tmp_path / "alpha.csv"]
        for loc, path in enumerate(paths):
            cells = ["A"] + [str(float(loc))] * len(METRICS) + ["0"]
            write_rows(path, [",".join(cells)], header=header)
        project = load_project(paths)
        assert project.name == "beta"
        assert [v.version for v in project.versions] == ["0", "0"]
        assert [v.records[0].metrics["loc"] for v in project.versions] == [0.0, 1.0]

    def test_a_class_that_dies_before_the_last_release_is_kept(self):
        v1 = make_dataset([make_record("A", loc=1), make_record("B", loc=1)], version="1")
        v2 = make_dataset([make_record("B", loc=2)], version="2")
        pooled = pool_versions(Project("p", (v1, v2)))
        assert pooled.records == (v1.records[0], v2.records[0])
        assert (pooled.project, pooled.version) == ("p", "pooled")

    def test_a_class_added_late_is_kept(self):
        v1 = make_dataset([make_record("A", loc=1)], version="1")
        v2 = make_dataset([make_record("A", loc=2), make_record("B", loc=2)], version="2")
        v3 = make_dataset([make_record("A", loc=3), make_record("C", loc=3)], version="3")
        pooled = pool_versions(Project("p", (v1, v2, v3)))
        assert pooled.records == (v3.records[0], v2.records[1], v3.records[1])

    def test_a_class_in_several_releases_keeps_its_latest_values(self):
        versions = tuple(make_dataset([make_record("A", defects=n, loc=n)], version=str(n))
                         for n in range(4))
        (kept,) = pool_versions(Project("p", versions)).records
        assert (kept.metrics["loc"], kept.defects) == (3.0, 3)

    def test_pool_versions_keeps_names_unique(self):
        # Releases sharing a label, and a class named like a prefixed copy.
        v1 = make_dataset([make_record("A", loc=1)], version="2")
        v2 = make_dataset([make_record("A", loc=2), make_record("2:A", loc=3)], version="2")
        pooled = pool_versions(Project("p", (v1, v2)))
        assert pooled.records == v2.records

    def test_unlabelled_files_pool_however_many_there_are(self, tmp_path):
        # Unlabelled files keep the order they are given in: the later wins.
        header = "name," + ",".join(METRICS) + ",bug"
        paths = [tmp_path / f"{stem}.csv" for stem in ("alpha", "beta", "gamma", "delta")]
        for loc, path in enumerate(paths):
            rows = [name + "," + ",".join([str(float(loc))] * len(METRICS)) + ",0"
                    for name in ("C0", f"D{loc}")]
            write_rows(path, rows, header=header)
        for given in (paths, paths[::-1]):
            pooled = pool_versions(load_project(given))
            order = [paths.index(path) for path in given]
            assert [r.class_name for r in pooled.records] == ["C0", *(f"D{k}" for k in order)]
            assert pooled.records[0].metrics["loc"] == order[-1]

    @given(st.lists(st.sets(st.sampled_from("ABCDEF"), min_size=1), min_size=1, max_size=5),
           st.booleans())
    def test_every_pooled_record_is_the_latest_releases_record(self, releases, one_label):
        versions = tuple(
            make_dataset([make_record(name, loc=k) for name in sorted(names)],
                         version="0" if one_label else str(k))
            for k, names in enumerate(releases)
        )
        pooled = pool_versions(Project("p", versions))
        names = list(dict.fromkeys(r.class_name for v in versions for r in v.records))
        assert [r.class_name for r in pooled.records] == names
        for rec in pooled.records:
            latest = [v for v in versions if rec.class_name in v.by_name()][-1]
            assert rec is latest.by_name()[rec.class_name]


def test_jureczko_ant_17_has_745_records(jureczko_root):
    path = jureczko_root / "ant" / "ant-1.7.csv"
    if not path.exists():
        pytest.skip(f"{path} not present in the local corpus")
    assert len(load_csv(path)) == 745


def test_load_csv_keeps_under_600_bytes_per_record(tmp_path):
    # Python 3.11, benchmark corpus seed 0: about 1,110 bytes per record
    # when each cell held its own float and each record an instance dict,
    # about 725 bytes with shared floats and slotted records, and about 460
    # bytes with each record's metrics in one tuple instead of a dict.
    path = bench_corpus().generate(tmp_path, seed=0, projects={"xalan"})
    path = path / "xalan" / "xalan-2.7.csv"
    load_csv(path)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_csv(path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds) == 880
    assert kept / len(ds) < 600


def test_load_project_keeps_under_420_bytes_per_record(tmp_path):
    # Python 3.11, benchmark corpus seed 0: about 468 bytes per record when
    # each release parsed its own floats and names, about 380 bytes with
    # equal cell texts and class names shared across the project's releases.
    root = bench_corpus().generate(tmp_path, seed=0, projects={"xalan"})
    paths = sorted((root / "xalan").glob("*.csv"))
    load_project(paths)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        project = load_project(paths)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = sum(len(v) for v in project.versions)
    assert (len(project.versions), records) == (4, 2760)
    assert kept / records < 420
