"""Command-line surface for planning, exemplar discovery, and evaluation.

Every command is a pure function of its input files and command-line
options: re-running it with the same arguments produces byte-identical
outputs. No option is read from the environment.

Each input has one spelling, and each option only its full name, never a
prefix of it. ``evaluate`` loads its project from ``--project-dir`` alone,
and the project's name is the one its files hold; ``--community`` is read
only for belltree's exemplar. An output's format is its name's: ``plan``
writes CSV exactly when ``--out`` ends in ``.csv``, the files
``load_project`` reads as releases, and the commands that write only JSON
refuse such an ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections.abc import Iterator
from dataclasses import astuple, fields
from itertools import chain
from json.encoder import INFINITY, encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from .bellwether import QUALITY_MEASURES, discover, exemplar_train
from .datasets import (
    DatasetError,
    METRICS,
    VersionedDataset,
    _check_epsilon,
    load_community,
    load_csv,
    load_project,
    pool_versions,
)
from .evaluate import evaluate_windows, windows
from .planners import (
    PLANNER_NAMES,
    PLANNERS,
    ThresholdPlanner,
    ThresholdRule,
    _Entry,
    make_planner,
    suggest_refactorings,
)
from .tree import tree_to_dict

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


# Encoder chunks held before each write: a document is never whole in memory.
_BATCH = 4096


def _publish(path: Path, body) -> None:
    """Atomic write: ``body(write)`` fills a temp file beside ``path``, created
    as ``open(path, "w")`` creates a file (so the kernel applies the umask or
    the directory's default ACL), and renamed into place once complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            body(fh.write)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _encode(value, chunks: list[str], lines: list[tuple[str, str]], depth: int, write,
            written: dict) -> None:
    """Append ``value``'s JSON text at nesting ``depth`` to ``chunks``, as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it, but raising
    TypeError for a non-``str`` key and writing an iterator as a list, and
    passing ``chunks`` on to ``write`` in batches. ``lines[d]`` holds depth
    ``d``'s newline and indent, bare and after a comma; each is built once.
    ``written`` maps a plan's shared action entry and a depth to the entry
    and its text there, so each is encoded once per document, as one chunk."""
    if type(value) is _Entry:  # the most frequent value in a plan document
        key = (id(value), depth)
        if key not in written:  # a batch flushed inside the entry stays in it
            held: list[str] = []
            part: list[str] = []
            _encode(dict(value), part, lines, depth, held.append, written)
            written[key] = (value, "".join(held + part))
        chunks.append(written[key][1])
    elif isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        chunks.append(
            "NaN" if value != value else "Infinity" if value == INFINITY
            else "-Infinity" if value == -INFINITY else float.__repr__(value)
        )
    else:
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple)) or isinstance(value, Iterator)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if len(lines) == depth + 1:
            line = lines[depth][0] + "  "
            lines.append((line, "," + line))
        line, comma_line = lines[depth + 1]
        chunks.append("{" if is_dict else "[")
        for item in sorted(value) if is_dict else value:
            chunks.append(line)
            line = comma_line
            if is_dict:  # item is a key: write it, then its value
                if not isinstance(item, str):
                    raise TypeError(f"keys must be str, not {type(item).__name__}")
                chunks.append(encode_basestring_ascii(item) + ": ")
                item = value[item]
            _encode(item, chunks, lines, depth + 1, write, written)
            if len(chunks) > _BATCH:
                write("".join(chunks))
                chunks.clear()
        if line == comma_line:
            chunks += (lines[depth][0], "}" if is_dict else "]")
        else:  # no item: the opening bracket is still the last chunk
            chunks[-1] = "{}" if is_dict else "[]"


def _write_json(path: Path, doc: dict) -> None:
    """``doc`` plus ``schema_version``, with sorted keys and a two-space indent:
    the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline,
    an iterator in ``doc`` written as the list it yields."""
    def body(write) -> None:
        chunks: list[str] = []
        _encode(dict(doc, schema_version=SCHEMA_VERSION), chunks, [("\n", ",\n")], 0, write,
                {})
        chunks.append("\n")
        write("".join(chunks))
    _publish(path, body)


def _write_csv(path: Path, rows, newline: str = "\n") -> None:
    """CSV written row by row, each line ended by ``newline``; a None cell is
    empty, a float its repr."""
    def body(write) -> None:  # CRLF rows, so a cell holding a bare CR is quoted
        out = SimpleNamespace(write=lambda line: write(line[:-2] + newline))
        csv.writer(out, lineterminator="\r\n").writerows(rows)
    _publish(path, body)


# Every planner option by --help group: name -> (type, help). A command
# registers those its planners take, each with the default its planner
# declares in PLANNERS.
OPTION_GROUPS = {
    "planner options": {
        "gamma": (float, "better-sibling score factor for the tree planners"),
        "seed": (int, "seed for suggested in-range values (fixed for reproducibility)"),
    },
    "tree options": {
        "max_depth": (int, "tree depth limit"),
        "min_leaf": (int, "minimum records per leaf (default: max(5, N/50))"),
    },
    "threshold baseline options": {
        "percentile": (float, "size-weighted percentile for the alves baseline"),
        "p0": (float, "significance level of the shatnawi logistic screen"),
        "p1": (float, "risk probability defining the shatnawi threshold"),
        "min_compliance": (float, "compliance target of the oliveira penalty"),
        "tail": (float, "tail percentile anchoring the oliveira penalty"),
    },
}


def _add_options(parser: argparse.ArgumentParser, planners, only=None) -> None:
    """Register the options the named planners take, or those of them in
    ``only``, each with the default its planner declares."""
    defaults = {k: v for name in planners for k, v in PLANNERS[name][1].items()
                if only is None or k in only}
    for title, options in OPTION_GROUPS.items():
        names = [name for name in options if name in defaults]
        if not names:
            continue
        group = parser.add_argument_group(title)
        for name in names:
            kind, text = options[name]
            group.add_argument("--" + name.replace("_", "-"), type=kind,
                               default=defaults[name], help=text)


def _load_train(paths: list[str]) -> VersionedDataset:
    """The training CSVs as releases of one project, pooled: each class
    once, as its row in the latest release that holds it."""
    return pool_versions(load_project(paths))


def _json_out(value: str) -> str:
    """An ``--out`` that a command fills with JSON: a ``*.csv`` name, which a
    later load would read back as a release, is a usage error."""
    if Path(value).name.endswith(".csv"):
        raise argparse.ArgumentTypeError(
            f"{value} would be read back as a release; a JSON output cannot end in .csv")
    return value


def _read_back(option: str, out: Path, inputs) -> bool:
    """Whether a CSV that ``option out`` writes would be read back as a
    release, as ``load_project`` reads every CSV at a directory's top level;
    the usage message is printed then. ``inputs`` holds ``(flag, value,
    written, read)``: the directory the output's CSVs land in and the one
    the input reads, both compared resolved; an empty value is skipped."""
    for flag, value, written, read in inputs:
        if value and written.resolve() == Path(read).resolve():
            print(f"planwise: {option} {out} lies among the data of {flag} {value}, "
                  "whose CSVs are read as releases", file=sys.stderr)
            return True
    return False


def _cmd_plan(args: argparse.Namespace) -> int:
    out = Path(args.out)
    as_csv = out.name.endswith(".csv")  # as load_project's *.csv glob matches it
    inputs = [("--train", p) for p in args.train] + [("--test", args.test)]
    if as_csv and _read_back("--out", out, [
        (flag, p, out.parent, Path(p).parent) for flag, p in inputs
    ]):
        return EXIT_USAGE
    train = _load_train(args.train)
    test = load_csv(args.test)
    planner = make_planner(args.planner, **vars(args))
    planner.fit(train)
    plans = map(planner.plan, test.records)

    # Lazy: each plan, row or entry lives only while it is written.
    if as_csv:
        rows = ([plan.class_name, *(plan.actions[m].direction for m in METRICS),
                 ";".join(suggest_refactorings(plan))] for plan in plans)
        _write_csv(out, chain([["class_name", *METRICS, "refactorings"]], rows))
    else:
        _write_json(out, {
            "planner": args.planner,
            "train": [str(p) for p in args.train],
            "test": str(args.test),
            "plans": (
                dict(plan.to_dict(), refactorings=suggest_refactorings(plan))
                for plan in plans
            ),
        })
    return EXIT_OK


def _cmd_bellwether(args: argparse.Namespace) -> int:
    community = load_community(args.community)
    report = discover(community, quality_measure=args.quality_measure)
    _write_json(Path(args.out), report.to_dict())
    print(f"bellwether: {report.bellwether}")
    return EXIT_OK


def _result_paths(out_dir: Path, project: str, versions, planner: str) -> tuple[Path, Path]:
    """A window's result JSON and curve CSV, named by its three releases."""
    stem = "-".join(map(str, (project, *versions, planner)))
    safe = stem.replace("/", "_")
    return out_dir / f"{safe}.json", out_dir / f"{safe}-curve.csv"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    names = list(PLANNER_NAMES) if args.planner == "all" else [args.planner]
    if "belltree" in names and not args.community:
        if args.planner == "all":
            names.remove("belltree")
        else:
            print(
                "planwise: belltree evaluation needs --community to discover "
                "the exemplar project",
                file=sys.stderr,
            )
            return EXIT_USAGE
    # Under --community, every direct subdirectory is a project.
    if _read_back("--out-dir", out_dir, [
        ("--project-dir", args.project_dir, out_dir, args.project_dir),
        ("--community", args.community, out_dir.resolve().parent, args.community),
    ]):
        return EXIT_USAGE

    project_dir = Path(args.project_dir)
    paths = sorted(project_dir.glob("*.csv"))
    if not paths:
        state = ("holds no version CSVs" if project_dir.is_dir()
                 else "is not a directory" if project_dir.exists() else "does not exist")
        raise DatasetError(f"project directory {project_dir} {state}")
    project = load_project(paths)
    windows(project)  # too few releases and a bad epsilon fail here, before discovery
    _check_epsilon(args.epsilon)
    belltree_train = None
    if "belltree" in names:
        belltree_train = exemplar_train(load_community(args.community), project,
                                        args.quality_measure)

    # Windows are named by their release labels, or by their releases'
    # 1-based positions when two releases share a label (unlabelled files).
    labels = [version.version for version in project.versions]
    by_position = len(set(labels)) < len(labels)
    # Every planner scores before anything is written, so a planner that
    # fails leaves no result of the others behind.
    scored = evaluate_windows(project, [
        (make_planner(name, **vars(args)), belltree_train if name == "belltree" else None)
        for name in names
    ], epsilon=args.epsilon)
    rows = []
    for results in scored:
        for window, result in enumerate(results, start=1):
            versions = range(window, window + 3) if by_position else result.versions.values()
            json_path, curve_path = _result_paths(out_dir, result.project, versions, result.planner)
            _write_json(json_path, result.to_dict())
            curve = [("bucket", "reduced", "increased", "classes"), *map(astuple, result.curve)]
            _write_csv(curve_path, curve, newline="\r\n")
            rows.append((f"{result.project}-{window}", result.planner,
                         result.aupec_reduced, result.aupec_increased,
                         result.changes_per_plan.median))

    header = ("dataset", "planner", "aupec_reduced", "aupec_increased", "median_changes")
    _write_csv(out_dir / "summary.csv", [header, *rows])
    _write_json(out_dir / "summary.json", {"rows": [dict(zip(header, row)) for row in rows]})
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    train = _load_train(args.train)
    rules = make_planner(args.planner, **vars(args)).fit(train).rules
    keys = [f.name for f in fields(ThresholdRule) if f.init]  # not the derived ones
    _write_json(Path(args.out), {
        "planner": args.planner,
        "rules": [{k: v for k in keys if (v := getattr(rule, k)) is not None}
                  for rule in rules],
    })
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    tree = make_planner("xtree", **vars(args)).grow(_load_train(args.train))
    _write_json(Path(args.out), {"tree": tree_to_dict(tree)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # No option has a second spelling by prefix: ``--out`` never means ``--out-dir``.
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog="planwise", **fmt,
        description=(
            "Learn metric-change plans from versioned defect datasets and "
            "score them against developer behavior."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="generate plans for every class of a release",
                          **fmt)
    plan.add_argument("--planner", required=True, choices=PLANNER_NAMES)
    plan.add_argument("--train", nargs="+", required=True,
                      help="training CSV(s); several files are pooled, each class "
                           "as its latest row")
    plan.add_argument("--test", required=True, help="release CSV to plan for")
    plan.add_argument("--out", required=True,
                      help="plan document: a CSV when it ends in .csv, else JSON")
    _add_options(plan, PLANNER_NAMES)
    plan.set_defaults(func=_cmd_plan)

    bell = sub.add_parser("bellwether", help="discover a community's exemplar project",
                          **fmt)
    bell.add_argument("--community", required=True,
                      help="directory of <project>/<version>.csv subdirectories")
    bell.add_argument("--out", required=True, type=_json_out)
    bell.add_argument("--quality-measure", choices=sorted(QUALITY_MEASURES),
                      default="g-score")
    bell.set_defaults(func=_cmd_bellwether)

    ev = sub.add_parser("evaluate", help="run the three-version protocol per window",
                        **fmt)
    ev.add_argument("--planner", required=True, choices=PLANNER_NAMES + ("all",))
    ev.add_argument("--project-dir", required=True,
                    help="directory of the evaluated project's version CSVs; results "
                         "carry the project name those files hold")
    ev.add_argument("--community", help="community directory (needed for belltree)")
    ev.add_argument("--out-dir", required=True,
                    help="result directory; keep it outside the data directories")
    ev.add_argument("--epsilon", type=float, default=0.0,
                    help="relative tolerance when diffing developer changes")
    ev.add_argument("--quality-measure", choices=sorted(QUALITY_MEASURES),
                    default="g-score")
    _add_options(ev, PLANNER_NAMES)
    ev.set_defaults(func=_cmd_evaluate)

    thresholds = sub.add_parser("thresholds", help="dump a baseline's threshold rules",
                                **fmt)
    baselines = [n for n, (kind, _) in PLANNERS.items() if kind is ThresholdPlanner]
    thresholds.add_argument("--planner", required=True, choices=baselines)
    thresholds.add_argument("--train", nargs="+", required=True)
    thresholds.add_argument("--out", required=True, type=_json_out)
    _add_options(thresholds, baselines)
    thresholds.set_defaults(func=_cmd_thresholds)

    tree = sub.add_parser("tree", help="dump the fitted defect tree as JSON",
                          **fmt)
    tree.add_argument("--train", nargs="+", required=True)
    tree.add_argument("--out", required=True, type=_json_out)
    _add_options(tree, ["xtree"], only=("max_depth", "min_leaf"))
    tree.set_defaults(func=_cmd_tree)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a DatasetError is a ValueError
        print(f"planwise: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
