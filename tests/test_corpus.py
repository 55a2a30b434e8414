import numpy as np
import pytest

from sboxkit import (
    CorpusEntry,
    NLMode,
    builtin_corpus,
    compare,
    corpus_ids,
    format_grid,
    full_report,
    get_entry,
    parse_grid,
    published_deltas,
)
from sboxkit.reporting import comparison_csv, comparison_markdown, deltas_section


def test_corpus_contents():
    entries = {e.id: e for e in builtin_corpus()}
    assert "aes" in entries and entries["aes"].table is not None
    assert "paper-proposed" in entries and entries["paper-proposed"].table is not None
    published_only = [e for e in entries.values() if e.table is None]
    assert len(published_only) == 15  # rows [14]..[28]
    assert all(e.published for e in published_only)


def test_proposed_grid_anchor_cells():
    table = get_entry("paper-proposed").table
    assert table[0] == 206
    assert table[255] == 116
    assert len(set(int(v) for v in table)) == 256


def test_corpus_grid_round_trips():
    for entry_id in ("aes", "paper-proposed"):
        table = get_entry(entry_id).table
        again = parse_grid(format_grid(table))
        assert np.array_equal(again, table)


def test_corpus_entries_are_fresh_copies():
    # the corpus is parsed once per process; mutating what a call returns
    # must not reach the next call
    aes = get_entry("aes")
    first_aes = aes.table[0]
    aes.table[:] = 0
    proposed = {e.id: e for e in builtin_corpus()}["paper-proposed"]
    proposed.table[:] = 0
    proposed.published["nl_per_coordinate"][0] = -1
    proposed.published["lp"] = None
    again = get_entry("paper-proposed")
    assert again.table[0] == 206
    assert again.published["nl_per_coordinate"][0] == 110
    assert again.published["lp"] is not None
    assert get_entry("aes").table[0] == first_aes
    assert builtin_corpus()[0].table[0] == first_aes


def test_unknown_id():
    with pytest.raises(KeyError):
        get_entry("nope")


def test_corpus_ids_listing():
    ids = corpus_ids()
    assert ids[0] == "aes"
    assert "paper-proposed" in ids
    assert len(ids) == 17


def test_compare_aes_alone():
    rows = compare([get_entry("aes")])
    assert len(rows) == 1
    row = rows[0]
    assert not row.published_only
    assert row.error is None
    assert row.report.nl_min == 112
    assert row.report.lp == 0.0625
    assert row.report.dp == 0.015625


def test_compare_published_only_row_echoes():
    rows = compare([get_entry("ref-22")])
    row = rows[0]
    assert row.published_only
    assert row.published["nl_min"] == 112.0
    assert row.published["lp"] == 0.062
    assert row.published["dp"] == 0.015


def test_compare_empty_errors():
    with pytest.raises(ValueError):
        compare([])


def test_compare_keeps_going_past_bad_rows():
    broken = CorpusEntry(id="broken", label="broken", source="t",
                         table=np.zeros(256, dtype=np.uint8))
    rows = compare([get_entry("aes"), broken, get_entry("ref-14")])
    assert [r.id for r in rows] == ["aes", "broken", "ref-14"]
    assert rows[0].error is None
    assert rows[1].error is not None
    assert rows[2].error is None


def test_ref28_carries_data_quality_flag():
    entry = get_entry("ref-28")
    assert entry.data_quality is not None
    assert "112" in entry.data_quality
    assert entry.published["sac"] == 112  # shipped unmodified, not guessed


def test_proposed_deltas_against_published_row():
    entry = get_entry("paper-proposed")
    report = full_report(entry.table)
    deltas = published_deltas(report, entry.published)
    by_metric = {d["metric"]: d for d in deltas}
    assert by_metric["fp"]["computed"] == 0
    assert by_metric["fp"]["match"]
    # the shipped grid reproduces the published headline numbers
    assert by_metric["nl_min"]["computed"] == 108
    assert by_metric["nl_max"]["computed"] == 110
    assert by_metric["sac"]["match"]
    assert by_metric["lp"]["match"]
    assert by_metric["dp"]["match"]


def test_compare_row_identical_to_direct_report():
    entry = get_entry("aes")
    row = compare([entry])[0]
    direct = full_report(entry.table, NLMode.COORDINATE)
    assert row.report.nl_per_coordinate == direct.nl_per_coordinate
    assert row.report.lp == direct.lp
    assert np.array_equal(row.report.sac_matrix, direct.sac_matrix)


def test_markdown_and_csv_render():
    rows = compare([get_entry("aes"), get_entry("paper-proposed"), get_entry("ref-22")])
    md = comparison_markdown(rows)
    assert md.startswith("| S-box |")
    assert "| AES |" in md
    assert "deltas for paper-proposed" in md
    csv = comparison_csv(rows)
    lines = csv.splitlines()
    assert lines[0].startswith("id,")
    assert len(lines) == 4
    assert lines[3].split(",")[-2] == "yes"  # ref-22 flagged published
    assert deltas_section(rows)
