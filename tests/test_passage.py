import numpy as np
import pytest

from psgrank.passage import (
    Passage,
    SegmentationParams,
    char_overlap,
    make_passage_id,
    neighbors,
    parse_passage_id,
    passage_spans,
    segment,
)
from row_references import passage_stems


def _doc(store_factory, n_tokens, word="tok"):
    text = " ".join(f"{word}{i}" for i in range(n_tokens))
    return store_factory({"d1": text}).get("d1")


class TestSegment:
    def test_650_tokens_window_300(self, store_factory):
        doc = _doc(store_factory, 650)
        passages = segment(doc, SegmentationParams(window_len=300))
        assert [p.length for p in passages] == [300, 300, 50]
        assert [p.ordinal for p in passages] == [0, 1, 2]

    def test_exact_fit_single_window(self, store_factory):
        doc = _doc(store_factory, 300)
        passages = segment(doc, SegmentationParams(window_len=300))
        assert len(passages) == 1
        assert passages[0].token_range == (0, 300)

    def test_empty_document_gets_one_empty_passage(self, store_factory):
        doc = store_factory({"d1": ""}).get("d1")
        passages = segment(doc, SegmentationParams(window_len=300))
        assert len(passages) == 1
        assert passages[0].length == 0
        assert passages[0].char_range == (0, 0)

    def test_coverage_invariant(self, store_factory):
        rng = np.random.default_rng(5)
        for n in (0, 1, 49, 50, 51, 137):
            doc = _doc(store_factory, n)
            for window in (1, 7, 50):
                passages = segment(doc, SegmentationParams(window_len=window))
                assert sum(p.length for p in passages) == doc.length
                bounds = [p.token_range for p in passages]
                for (s1, e1), (s2, e2) in zip(bounds, bounds[1:]):
                    assert e1 == s2  # contiguous, non-overlapping

    def test_reassembly_oracle(self, store_factory, tokenizer):
        text = "The cat sat on a mat. A dog ran past quickly, barking at it all."
        doc = store_factory({"d1": text}).get("d1")
        passages = segment(doc, SegmentationParams(window_len=4))
        for p in passages:
            slice_ = doc.raw_text[p.char_range[0] : p.char_range[1]]
            resliced = [t.surface for t in tokenizer.tokenize(slice_)]
            original = [
                doc.tokens[i].surface for i in range(p.token_range[0], p.token_range[1])
            ]
            assert resliced == original

    def test_char_range_spans_exact_tokens(self, store_factory):
        doc = _doc(store_factory, 20)
        for p in segment(doc, SegmentationParams(window_len=6)):
            start_tok = doc.tokens[p.token_range[0]]
            end_tok = doc.tokens[p.token_range[1] - 1]
            assert p.char_range == (start_tok.char_start, end_tok.char_end)

    def test_deterministic(self, store_factory):
        doc = _doc(store_factory, 77)
        a = segment(doc, SegmentationParams(window_len=10))
        b = segment(doc, SegmentationParams(window_len=10))
        assert a == b


class TestSentenceMode:
    def test_splits_on_terminators(self, store_factory):
        text = "Alpha beta. Gamma delta! Epsilon? Zeta"
        doc = store_factory({"d1": text}).get("d1")
        passages = segment(doc, SegmentationParams(window_len=1, mode="sentence"))
        stems = [passage_stems(doc, p) for p in passages]
        assert stems == [["alpha", "beta"], ["gamma", "delta"], ["epsilon"], ["zeta"]]

    def test_abbreviation_period_without_space_not_split(self, store_factory):
        # A period not followed by whitespace does not end a sentence.
        text = "Version 2.5 works. Done"
        doc = store_factory({"d1": text}).get("d1")
        passages = segment(doc, SegmentationParams(window_len=1, mode="sentence"))
        stems = [passage_stems(doc, p) for p in passages]
        assert stems == [["version", "2", "5", "work"], ["done"]]

    def test_coverage(self, store_factory):
        text = "One two. Three! Four five six? Seven."
        doc = store_factory({"d1": text}).get("d1")
        passages = segment(doc, SegmentationParams(window_len=1, mode="sentence"))
        assert sum(p.length for p in passages) == doc.length


class TestPassageIds:
    def test_round_trip(self):
        pid = make_passage_id("doc-1", 3)
        assert parse_passage_id(pid) == ("doc-1", 3)

    def test_round_trip_with_separator_in_doc_id(self):
        pid = make_passage_id("doc#weird#id", 2)
        assert parse_passage_id(pid) == ("doc#weird#id", 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_passage_id("nosordinal")


class TestPassageSpans:
    def test_spans_are_document_and_char_range(self, store_factory):
        store = store_factory({"d1": " ".join(f"w{i}" for i in range(25)), "d2": ""})
        passages = [
            p for d in ("d1", "d2") for p in segment(store.get(d), SegmentationParams(10))
        ]
        spans = passage_spans(passages)
        assert list(spans) == ["d1#0", "d1#1", "d1#2", "d2#0"]
        assert spans["d1#0"] == ("d1", 0, len(" ".join(f"w{i}" for i in range(10))))
        assert spans["d2#0"] == ("d2", 0, 0)
        for p in passages:
            doc_id, start, end = spans[p.passage_id]
            assert (doc_id, (start, end)) == (p.doc_id, p.char_range)

    def test_no_passages(self):
        assert passage_spans([]) == {}


class TestNeighbors:
    def test_middle_passage(self, store_factory):
        doc = _doc(store_factory, 30)
        passages = segment(doc, SegmentationParams(window_len=10))
        pre, follow = neighbors(passages[1], passages)
        assert pre.ordinal == 0 and follow.ordinal == 2

    def test_first_passage_is_its_own_pre(self, store_factory):
        doc = _doc(store_factory, 30)
        passages = segment(doc, SegmentationParams(window_len=10))
        pre, follow = neighbors(passages[0], passages)
        assert pre is passages[0] and follow.ordinal == 1

    def test_single_passage_doc(self, store_factory):
        doc = _doc(store_factory, 5)
        passages = segment(doc, SegmentationParams(window_len=10))
        pre, follow = neighbors(passages[0], passages)
        assert pre is passages[0] and follow is passages[0]


class TestCharOverlap:
    def _passage(self, lo, hi):
        return Passage("d#0", "d", 0, (0, 1), (lo, hi))

    def test_half_overlap(self):
        overlap, total = char_overlap(self._passage(0, 100), [(50, 150)])
        assert (overlap, total) == (50, 100)

    def test_disjoint(self):
        overlap, _ = char_overlap(self._passage(0, 100), [(200, 250)])
        assert overlap == 0

    def test_multiple_overlapping_spans_bitmap_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lo = int(rng.integers(0, 50))
            hi = lo + int(rng.integers(1, 80))
            spans = []
            for _ in range(int(rng.integers(0, 6))):
                s = int(rng.integers(0, 120))
                spans.append((s, s + int(rng.integers(1, 40))))
            overlap, total = char_overlap(self._passage(lo, hi), spans)
            covered = set()
            for s, e in spans:
                covered.update(range(s, e))
            expected = len(covered & set(range(lo, hi)))
            assert overlap == expected
            assert total == hi - lo
