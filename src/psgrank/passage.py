"""Fixed-window (or sentence) segmentation of documents into passages."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document

_ID_SEP = "#"
_SENTENCE_BREAK_RE = re.compile(r"[.!?]+(?=\s|$)")
SEGMENTATION_MODES = ("fixed", "sentence")


@dataclass(frozen=True)
class SegmentationParams:
    """Window length for fixed mode; mode may be 'fixed' or 'sentence'."""

    window_len: int = 300
    mode: str = "fixed"

    def __post_init__(self):
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if self.mode not in SEGMENTATION_MODES:
            raise ValueError(f"unknown segmentation mode: {self.mode!r}")

    @property
    def identity(self) -> str:
        return f"{self.mode}-{self.window_len}" if self.mode == "fixed" else "sentence"


@dataclass(frozen=True)
class Passage:
    """A contiguous token window of a document.

    ``token_range`` and ``char_range`` are half-open; the char range spans
    exactly the tokens in the token range.
    """

    passage_id: str
    doc_id: str
    ordinal: int
    token_range: tuple[int, int]
    char_range: tuple[int, int]

    @property
    def length(self) -> int:
        return self.token_range[1] - self.token_range[0]


def make_passage_id(doc_id: str, ordinal: int) -> str:
    return f"{doc_id}{_ID_SEP}{ordinal}"


def parse_passage_id(passage_id: str) -> tuple[str, int]:
    doc_id, _, ordinal = passage_id.rpartition(_ID_SEP)
    if not doc_id:
        raise ValueError(f"not a passage id: {passage_id!r}")
    return doc_id, int(ordinal)


def _windows_to_passages(doc: Document, bounds: list[tuple[int, int]]) -> list[Passage]:
    passages = []
    for ordinal, (start, end) in enumerate(bounds):
        if end > start:
            char_range = (int(doc.char_starts[start]), int(doc.char_ends[end - 1]))
        else:
            char_range = (0, 0)
        passages.append(
            Passage(
                passage_id=make_passage_id(doc.doc_id, ordinal),
                doc_id=doc.doc_id,
                ordinal=ordinal,
                token_range=(start, end),
                char_range=char_range,
            )
        )
    return passages


def segment(doc: Document, params: SegmentationParams) -> list[Passage]:
    """Split a document into non-overlapping contiguous passages.

    Fixed mode yields windows of ``window_len`` tokens with a short tail
    kept as its own passage; sentence mode splits at ./!/? followed by
    whitespace. Every document yields at least one passage, so an empty
    document gets a single empty passage with ordinal 0.
    """
    n = doc.length
    if n == 0:
        return _windows_to_passages(doc, [(0, 0)])
    if params.mode == "fixed":
        step = params.window_len
        bounds = [(s, min(s + step, n)) for s in range(0, n, step)]
        return _windows_to_passages(doc, bounds)
    return _windows_to_passages(doc, _sentence_bounds(doc))


def _sentence_bounds(doc: Document) -> list[tuple[int, int]]:
    # Token i ends a sentence when a break mark starts at or after its end
    # and before token i+1 starts: the first mark at or after the end is
    # the one to test.
    breaks = np.array(
        [m.start() for m in _SENTENCE_BREAK_RE.finditer(doc.raw_text)], dtype=np.int64
    )
    first = np.searchsorted(breaks, doc.char_ends[:-1])
    has_break = first < len(breaks)
    has_break[has_break] = breaks[first[has_break]] < doc.char_starts[1:][has_break]
    cuts = [0, *(np.flatnonzero(has_break) + 1).tolist(), doc.length]
    return list(zip(cuts, cuts[1:]))


def passage_spans(passages: Iterable[Passage]) -> dict[str, tuple[str, int, int]]:
    """Passage id -> (document id, char start, char end), the spans that
    interpolated precision reads."""
    return {p.passage_id: (p.doc_id, *p.char_range) for p in passages}


def neighbors(p: Passage, doc_passages: Sequence[Passage]) -> tuple[Passage, Passage]:
    """Preceding and following passages; at a document boundary the passage
    stands in for its own missing neighbor."""
    pre = doc_passages[p.ordinal - 1] if p.ordinal > 0 else p
    follow = doc_passages[p.ordinal + 1] if p.ordinal + 1 < len(doc_passages) else p
    return pre, follow


def merge_intervals(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The union of half-open intervals as sorted, disjoint, non-touching
    intervals; empty intervals are dropped."""
    merged: list[tuple[int, int]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def char_overlap(
    p: Passage, spans: Iterable[tuple[int, int]]
) -> tuple[int, int]:
    """Characters of the passage covered by the union of the given spans.

    Returns (overlap_chars, passage_chars); the ratio is the fraction of
    relevant characters used for grade bucketing.
    """
    lo, hi = p.char_range
    clipped = merge_intervals((max(s, lo), min(e, hi)) for s, e in spans)
    return sum(e - s for s, e in clipped), hi - lo
