import csv
import hashlib
import io

from planwise.refactorings import (
    SHARED_METRICS,
    TABLE_METRICS,
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


def test_checksum_pinned():
    # The catalog as CSV, a blank cell where the literature is silent.
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["action"] + list(TABLE_METRICS))
    for row in table():
        writer.writerow([row.name] + [row.signature.get(m, "") for m in TABLE_METRICS])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CATALOG_SHA256


def test_table_returns_fresh_copies():
    first = table()[0]
    first.signature["cbo"] = "-"
    assert table()[0].signature["cbo"] == "+"


def test_shared_metrics_drop_catalog_only_columns():
    assert set(TABLE_METRICS) - set(SHARED_METRICS) == {"fout", "nom"}
    assert SHARED_METRICS == ("dit", "noc", "cbo", "rfc", "wmc", "loc", "lcom")
