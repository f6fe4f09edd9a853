import csv
import hashlib
import io

import pytest

from planwise.refactorings import (
    SHARED_METRICS,
    TABLE_METRICS,
    RefactoringSignature,
    table,
)

# Frozen content hash; any edit to the catalog must be deliberate.
CATALOG_SHA256 = "04e9047ebc824d6a26cace332153ad9abd9dbb0bc7a133e356cf6af07c4eea84"


def test_has_twelve_rows():
    assert len(table()) == 12


def test_extract_method_row():
    rows = {r.name: r for r in table()}
    assert rows["Extract Method"].signature == {
        "rfc": "+", "wmc": "+", "nom": "+", "loc": "+", "lcom": "+",
    }


def test_hide_method_is_blank():
    rows = {r.name: r for r in table()}
    assert rows["Hide Method"].signature == {}
    assert rows["Reverse Conditional"].signature == {}


def catalog_sha256() -> str:
    # The catalog as CSV, a blank cell where the literature is silent.
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["action"] + list(TABLE_METRICS))
    for row in table():
        writer.writerow([row.name] + [row.signature.get(m, "") for m in TABLE_METRICS])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_checksum_pinned():
    assert catalog_sha256() == CATALOG_SHA256


def test_rows_are_read_only_and_each_list_is_new():
    for row in table():
        with pytest.raises(TypeError):
            row.signature["cbo"] = "-"
        assert not hasattr(row, "__dict__")
    rows = table()
    rows.append(rows[0])
    assert len(table()) == 12
    table().clear()
    assert len(table()) == 12
    assert catalog_sha256() == CATALOG_SHA256


def test_a_row_keeps_its_own_copy_of_the_signature():
    signature = {"loc": "-"}
    row = RefactoringSignature("Inline Temp", signature)
    signature["loc"] = "+"
    assert row.signature == {"loc": "-"}


def test_rows_are_shared_between_calls():
    first, second = table(), table()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_shared_moves_are_the_signature_on_shared_metrics():
    for row in table():
        assert row.shared_moves == tuple(
            (m, s) for m, s in row.signature.items() if m in SHARED_METRICS
        )
    rows = {r.name: r for r in table()}
    assert rows["Hide Method"].shared_moves == ()
    assert rows["Reverse Conditional"].shared_moves == ()
    assert rows["Extract Class"].shared_moves == (
        ("cbo", "+"), ("rfc", "-"), ("wmc", "-"), ("loc", "-"), ("lcom", "-"),
    )


def test_shared_moves_take_no_part_in_equality_or_repr():
    for row in table():
        other = RefactoringSignature(row.name, row.signature)
        object.__setattr__(other, "shared_moves", (("dit", "+"),))
        assert other == row
        assert repr(other) == repr(row)
        assert "shared_moves" not in repr(row)


def test_shared_metrics_drop_catalog_only_columns():
    assert set(TABLE_METRICS) - set(SHARED_METRICS) == {"fout", "nom"}
    assert SHARED_METRICS == ("dit", "noc", "cbo", "rfc", "wmc", "loc", "lcom")
