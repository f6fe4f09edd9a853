"""Tests of the benchmark's corpus generator and of its own CSV reader.

Run from the repository root: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import csv
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from planwise import load_csv  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.csv"))}


@pytest.fixture(scope="module")
def community(tmp_path_factory) -> Path:
    return corpus.generate(tmp_path_factory.mktemp("seed0"), seed=0)


def test_same_seed_gives_identical_files(community, tmp_path):
    assert _files(corpus.generate(tmp_path, seed=0)) == _files(community)


def test_other_seed_or_variant_gives_other_files(community, tmp_path):
    other_seed = _files(corpus.generate(tmp_path / "seed1", seed=1))
    other_variant = _files(corpus.generate(tmp_path / "variant1", seed=0, variant=1))
    base = _files(community)
    assert other_seed.keys() == base.keys() == other_variant.keys()
    assert all(other_seed[k] != base[k] for k in base)
    assert all(other_variant[k] != base[k] for k in base)


def test_one_project_alone_has_the_same_bytes(community, tmp_path):
    alone = _files(corpus.generate(tmp_path, seed=0, projects=["ant"]))
    assert alone and alone == {k: v for k, v in _files(community).items()
                               if k.startswith("ant/")}


def test_projects_and_releases_follow_the_public_corpus(community):
    spec = importlib.util.spec_from_file_location(
        "fetch_jureczko", ROOT / "scripts" / "fetch_jureczko.py")
    fetch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fetch)
    found = {
        p.name: sorted(f.stem.split("-", 1)[1] for f in p.glob("*.csv"))
        for p in community.iterdir()
    }
    assert found == {k: sorted(v) for k, v in fetch.PROJECT_VERSIONS.items()}
    assert sum(len(v) for v in found.values()) == 38


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        # The Jureczko layout repeats "name": project first, class last.
        header[2] = "class"
        return [dict(zip(header, row)) for row in reader]


def test_values_have_the_jureczko_shape(community):
    for path in community.rglob("*.csv"):
        rows = _rows(path)
        assert 200 <= len(rows) <= 900, path
        for row in rows:
            for metric in corpus.COUNT_METRICS:
                assert float(row[metric]).is_integer() and float(row[metric]) >= 0
            for metric in corpus.RATIO_METRICS:
                assert 0.0 <= float(row[metric]) <= 1.0
            for metric in corpus.MEAN_METRICS:
                assert float(row[metric]) >= 0.0
            assert int(row["bug"]) >= 0
        defective = sum(int(r["bug"]) > 0 for r in rows) / len(rows)
        assert 0.1 < defective < 0.6, path


def test_most_classes_carry_over(community):
    for project in community.iterdir():
        releases = checks.read_corpus(community)[project.name]
        for old, new in zip(releases, releases[1:]):
            carried = len(set(old.names) & set(new.names))
            assert carried == round(corpus.CARRY_OVER * len(old)), project.name


def test_every_file_loads_in_planwise(community):
    for path in sorted(community.rglob("*.csv")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset = load_csv(path)
        release = checks.read_release(path)
        assert dataset.project == path.parent.name
        assert dataset.version == release.version
        assert [r.class_name for r in dataset.records] == list(release.names)
        assert {r.class_name: r.defects for r in dataset.records} == release.defects
