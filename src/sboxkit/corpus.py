"""Reference S-box corpus and side-by-side comparison.

The shipped corpus pairs grid files with a JSON manifest.  Two entries carry
bytes: the standard AES S-box (the anchor for every oracle in the test suite)
and the published chaotic-map S-box this toolkit reproduces the analysis for.
The remaining entries are published-only metric rows from the surrounding
literature; their constructions are out of scope, so they contribute fixed
constants flagged as "published".

``compare`` computes the full battery for entries with bytes and echoes the
stored row for published-only entries, keeping input order and never letting
one bad row abort the rest.

``PUBLISHED_FIELDS`` is the one map from a published column to the
``MetricReport`` attribute it reports, read through ``published_values``;
the deltas, the comparison table and the ``analyze --md`` row all use it.
"""

import copy
import functools
import json
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .boxfile import BoxFormat, load_sbox
from .errors import check_member
from .metrics import MetricReport, NLMode, full_report

# Metric columns a published row may carry, in presentation order, each
# with the MetricReport attribute that computes it.
PUBLISHED_FIELDS = {
    "nl_min": "nl_min", "nl_max": "nl_max", "nl_avg": "nl_avg",
    "sac": "sac_avg", "sac_offset": "sac_offset", "bic_nl": "bic_nl_avg",
    "lp": "lp", "dp": "dp", "fp": "fixed_point_count",
}


def published_values(report: MetricReport) -> dict:
    """The published columns of `report`, in presentation order."""
    return {name: getattr(report, attr) for name, attr in PUBLISHED_FIELDS.items()}


@dataclass
class CorpusEntry:
    id: str
    label: str
    source: str
    table: np.ndarray | None = None
    published: dict | None = None
    note: str | None = None
    data_quality: str | None = None

    def __post_init__(self):
        if self.table is None and self.published is None:
            raise ValueError(f"corpus entry {self.id!r} has neither bytes nor a published row")


@dataclass
class ComparisonRow:
    """One rendered comparison line; either computed from bytes or echoed."""

    id: str
    label: str
    report: MetricReport | None = None
    published: dict | None = None
    note: str | None = None
    error: str | None = None
    deltas: list = field(default_factory=list)

    @property
    def published_only(self) -> bool:
        return self.report is None and self.error is None


def _data_text(name: str) -> str:
    return resources.files("sboxkit.data").joinpath(name).read_text(encoding="ascii")


@functools.cache
def _load_corpus() -> tuple:
    """Parse the shipped manifest and grid files, once per process."""
    manifest = json.loads(_data_text("manifest.json"))
    entries = []
    for item in manifest["entries"]:
        table = None
        if "file" in item:
            with resources.as_file(
                resources.files("sboxkit.data").joinpath(item["file"])
            ) as path:
                table = load_sbox(path, BoxFormat.DECIMAL_GRID)
        entries.append(CorpusEntry(
            id=item["id"],
            label=item.get("label", item["id"]),
            source=item.get("source", ""),
            table=table,
            published=item.get("published"),
            note=item.get("note"),
            data_quality=item.get("data_quality"),
        ))
    return tuple(entries)


def _fresh(entry: CorpusEntry) -> CorpusEntry:
    """A copy of a cached entry that a caller may mutate freely."""
    return replace(
        entry,
        table=None if entry.table is None else entry.table.copy(),
        published=copy.deepcopy(entry.published),
    )


def builtin_corpus() -> list:
    """The shipped corpus (manifest plus grid files) as fresh CorpusEntry objects."""
    return [_fresh(entry) for entry in _load_corpus()]


def get_entry(entry_id: str) -> CorpusEntry:
    for entry in _load_corpus():
        if entry.id == entry_id:
            return _fresh(entry)
    raise KeyError(f"unknown corpus id {entry_id!r}")


def corpus_ids() -> list:
    return [entry.id for entry in _load_corpus()]


def published_deltas(report: MetricReport, published: dict) -> list:
    """Computed-versus-published diffs for the fields the row carries.

    Floats match when they agree to the precision the published value was
    rounded at (half an ulp of its last printed decimal).
    """
    computed = published_values(report)
    out = []
    for name in PUBLISHED_FIELDS:
        if name not in published:
            continue
        pub = published[name]
        got = computed[name]
        tol = _published_tolerance(pub)
        out.append({
            "metric": name,
            "computed": got,
            "published": pub,
            "match": abs(float(got) - float(pub)) <= tol,
        })
    return out


def _published_tolerance(value) -> float:
    if isinstance(value, int):
        return 0.0
    text = repr(float(value))
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 0.5 * 10.0 ** -decimals


def compare(entries, nl_mode: NLMode = NLMode.COORDINATE) -> list:
    """Build comparison rows for a non-empty list of CorpusEntry.

    Entries with bytes are measured with the full battery; published-only
    entries echo their stored row.  A row that fails to compute carries its
    error message instead of aborting the comparison.
    """
    check_member("nl_mode", nl_mode, NLMode)
    entries = list(entries)
    if not entries:
        raise ValueError("nothing to compare: entry list is empty")
    rows = []
    for entry in entries:
        note = " / ".join(s for s in (entry.note, entry.data_quality) if s) or None
        if entry.table is None:
            rows.append(ComparisonRow(id=entry.id, label=entry.label,
                                      published=entry.published, note=note))
            continue
        try:
            report = full_report(entry.table, nl_mode)
        except Exception as exc:  # keep remaining rows alive
            rows.append(ComparisonRow(id=entry.id, label=entry.label, note=note,
                                      error=str(exc)))
            continue
        deltas = published_deltas(report, entry.published) if entry.published else []
        rows.append(ComparisonRow(id=entry.id, label=entry.label, report=report,
                                  published=entry.published, note=note, deltas=deltas))
    return rows
