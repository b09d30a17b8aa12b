import math

import numpy as np
import pytest

import oracles
import row_references
from conftest import make_query, noisy_corpus
from psgrank.corpus import CorpusStore, Query
from psgrank.index import (
    IndexError_,
    LmParams,
    SdmWeights,
    build_index,
    count_ordered_pairs,
    count_window_pairs,
    lm_similarities,
    rank_documents_lm,
    retrieve_lm,
    sdm_components,
)
from psgrank.synthetic import SyntheticSpec, generate


def _stems(store):
    return {d.doc_id: d.stems() for d in store.documents}


def lm_similarity(terms, counts, length, index, params) -> float:
    """lm_similarities over one unit."""
    return float(lm_similarities(terms, counts, np.array([length]), index, params)[0])


def doc_lm_similarity(terms, doc_id, index, params) -> float:
    """lm_similarity against an indexed document, counts read from postings."""
    counts = {t: len(index.positions(t, doc_id)) for t in set(terms)}
    return lm_similarity(terms, counts, index.doc_lengths[doc_id], index, params)


def _random_texts(rng, n_docs, vocab, min_len=5, max_len=40):
    texts = {}
    for i in range(n_docs):
        n = int(rng.integers(min_len, max_len))
        texts[f"d{i:03d}"] = " ".join(rng.choice(vocab, size=n))
    return texts


class TestBuildIndex:
    def test_hand_enumerable_postings(self, store_factory):
        store = store_factory({"d1": "a b a", "d2": "b"})
        index = build_index(store)
        postings = row_references.postings_of(index)
        assert postings["a"] == [("d1", [0, 2])]
        assert postings["b"] == [("d1", [1]), ("d2", [0])]
        assert not index.positions("a", "d1").flags.writeable
        assert index.collection_length == 4
        assert index.doc_lengths == {"d1": 3, "d2": 1}

    def test_empty_document(self, store_factory):
        store = store_factory({"d1": "a", "d2": ""})
        index = build_index(store)
        assert index.doc_lengths["d2"] == 0
        postings = row_references.postings_of(index)
        assert all("d2" not in dict(plist) for plist in postings.values())

    def test_invariants_and_scan_oracle(self, store_factory):
        rng = np.random.default_rng(42)
        vocab = [f"w{i}" for i in range(30)]
        store = store_factory(_random_texts(rng, 100, vocab))
        index = build_index(store)
        stems = _stems(store)
        postings = row_references.postings_of(index)
        # Brute-force linear-scan counter.
        for term in vocab:
            expected = {
                d: [i for i, s in enumerate(slist) if s == term]
                for d, slist in stems.items()
                if term in slist
            }
            assert dict(postings.get(term, ())) == expected
        assert index.collection_length == sum(len(s) for s in stems.values())
        for term, plist in postings.items():
            assert index.collection_term_counts[term] == sum(len(p) for _, p in plist)
        per_doc = {d: 0 for d in stems}
        for plist in postings.values():
            for d, positions in plist:
                per_doc[d] += len(positions)
        assert per_doc == index.doc_lengths

    def test_empty_store_rejected(self, store_factory):
        with pytest.raises(IndexError_):
            build_index(store_factory({}))


def _synthetic_store(tmp_path, corpus_fn, tokenizer):
    from psgrank.corpus import ingest_corpus

    return ingest_corpus(corpus_fn(tmp_path)["corpus"], "jsonl", tokenizer=tokenizer)


def _tiny(tmp_path):
    spec = SyntheticSpec(
        n_docs=48, n_queries=6, doc_tokens=90, window_len=30, relevant_per_query=4,
        distractors_per_query=4, vocab_size=300, seed=5,
    )
    return generate(spec, tmp_path / "data")


def _noisy(tmp_path):
    return noisy_corpus(tmp_path / "data")


ESCAPED_TEXTS = {
    'd"1': "caf\u00e9 na\u00efve a b a",
    "a\\b": "b c \u00e9t\u00e9",
    "\u00e9": "c a c",
    "x\u2028y": "a \u2028 a b",
}


class TestIndexFile:
    """index.json is the bytes of one json.dumps(payload, sort_keys=True)."""

    def _check(self, store, tmp_path):
        build_index(store).save(tmp_path / "index.json")
        written = (tmp_path / "index.json").read_bytes()
        assert written == row_references.index_json(store).encode("utf-8")
        postings = "".join(build_index(store)._postings_json(block=3))
        assert f'"postings": {{{postings}}}'.encode() in written
        # The index of the saved store, rebuilt from it, writes the same bytes.
        store.save(tmp_path / "store")
        reloaded = CorpusStore.load(tmp_path / "store", store.tokenizer.stopwords)
        build_index(reloaded).save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == written

    def test_tiny_corpus(self, tmp_path, tokenizer):
        self._check(_synthetic_store(tmp_path, _tiny, tokenizer), tmp_path)

    def test_ids_needing_escapes(self, tmp_path, store_factory):
        store = store_factory(ESCAPED_TEXTS)
        assert any(not d.isascii() for d in store.doc_ids())
        self._check(store, tmp_path)

    def test_empty_document(self, tmp_path, store_factory):
        self._check(store_factory({"d1": "a b a", "d2": "", "d3": "b c"}), tmp_path)

    def test_only_empty_documents(self, tmp_path, store_factory):
        self._check(store_factory({"d1": "", "d2": ""}), tmp_path)


class TestLmSimilarity:
    def test_degenerate_one_term_collection(self, store_factory, tokenizer):
        store = store_factory({"d1": "a"})
        index = build_index(store)
        for mu in (0.0, 10.0, 1000.0):
            assert lm_similarity(["a"], {"a": 1}, 1, index, LmParams(mu)) == pytest.approx(1.0)

    def test_mu_zero_reduces_to_mle(self, store_factory):
        store = store_factory({"d1": "a b"})
        index = build_index(store)
        assert lm_similarity(["a"], {"a": 1, "b": 1}, 2, index, LmParams(0.0)) == pytest.approx(0.5)

    def test_against_direct_formula_oracle(self, store_factory):
        store = store_factory({"d1": "a b b", "d2": "a c", "d3": "b c c a"})
        index = build_index(store)
        stems = _stems(store)
        got = lm_similarity(["a", "b"], {"a": 1, "b": 2}, 3, index, LmParams(10.0))
        expected = oracles.lm_similarity(["a", "b"], {"a": 1, "b": 2}, 3, stems, 10.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_oov_terms_dropped(self, store_factory):
        store = store_factory({"d1": "a b"})
        index = build_index(store)
        with_oov = lm_similarity(["a", "zz"], {"a": 1, "b": 1}, 2, index, LmParams(5.0))
        without = lm_similarity(["a"], {"a": 1, "b": 1}, 2, index, LmParams(5.0))
        assert with_oov == pytest.approx(without)
        assert lm_similarity(["zz"], {"a": 1}, 1, index, LmParams(5.0)) == 0.0

    def test_smoothing_monotonicity_to_collection(self, store_factory):
        # As mu grows the score approaches the collection-model score.
        store = store_factory({"d1": "a a b", "d2": "b c", "d3": "a c c"})
        index = build_index(store)
        terms = ["a", "c"]
        coll_counts = index.collection_term_counts
        coll = lm_similarity(
            terms, coll_counts, index.collection_length, index, LmParams(0.0)
        )
        for counts, length in ({"a": 2, "b": 1}, 3), ({"b": 1, "c": 1}, 2):
            huge = lm_similarity(terms, counts, length, index, LmParams(1e9))
            assert huge == pytest.approx(coll, abs=1e-6)

    def test_scale_free_in_y(self, store_factory):
        store = store_factory({"d1": "a b b", "d2": "c a"})
        index = build_index(store)
        one = lm_similarity(["a", "b"], {"a": 1, "b": 2}, 3, index, LmParams(0.0))
        dup = lm_similarity(["a", "b"], {"a": 2, "b": 4}, 6, index, LmParams(0.0))
        assert one == pytest.approx(dup, rel=1e-12)

    def test_units_equal_scalar_loop(self, store_factory):
        # Many units in one pass, each bit for bit the scalar loop: fractional
        # counts, repeated and unknown query terms, and mu = 0 with a kept
        # term absent from a unit (theta 0, score 0) or a zero-length unit.
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(8)]
        store = store_factory(_random_texts(rng, 15, vocab))
        index = build_index(store)
        for trial in range(40):
            terms = list(rng.choice(vocab + ["zz"], size=int(rng.integers(1, 6))))
            n = int(rng.integers(1, 7))
            table = rng.integers(0, 3, size=(len(vocab), n)) * rng.choice([1.0, 0.37], size=n)
            counts = {t: table[i] for i, t in enumerate(vocab)}
            lengths = table.sum(axis=0)
            params = LmParams(0.0 if trial % 3 == 0 else float(rng.uniform(0, 50)))
            got = lm_similarities(terms, counts, lengths, index, params)
            for u in range(n):
                unit = {t: float(c[u]) for t, c in counts.items()}
                expected = row_references.lm_similarity(terms, unit, lengths[u], index, params)
                assert got[u].hex() == expected.hex()

    def test_result_in_unit_interval(self, store_factory):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(10)]
        store = store_factory(_random_texts(rng, 20, vocab))
        index = build_index(store)
        stems = _stems(store)
        for _ in range(50):
            terms = list(rng.choice(vocab, size=int(rng.integers(1, 4))))
            doc = str(rng.choice(list(stems)))
            s = doc_lm_similarity(terms, doc, index, LmParams(float(rng.uniform(0, 100))))
            assert 0.0 <= s <= 1.0


class TestRetrieveLm:
    def test_simple_ordering(self, store_factory, tokenizer):
        store = store_factory({"d1": "a a", "d2": "a b"})
        index = build_index(store)
        run = retrieve_lm(make_query("q", "a", tokenizer), index, LmParams(0.0), 10)
        assert run.entries == (("d1", 1.0), ("d2", 0.5))

    def test_k_truncation(self, store_factory, tokenizer):
        store = store_factory({"d1": "a a", "d2": "a b"})
        index = build_index(store)
        run = retrieve_lm(make_query("q", "a", tokenizer), index, LmParams(0.0), 1)
        assert run.ids() == ["d1"]

    def test_no_indexed_terms(self, store_factory, tokenizer):
        store = store_factory({"d1": "a"})
        index = build_index(store)
        run = retrieve_lm(make_query("q", "zebra", tokenizer), index, LmParams(1000.0), 5)
        assert len(run) == 0

    def test_against_exhaustive_oracle(self, store_factory, tokenizer):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(12)]
        texts = _random_texts(rng, 50, vocab)
        store = store_factory(texts)
        index = build_index(store)
        stems = _stems(store)
        query = make_query("q", "w1 w5 w9", tokenizer)
        run = retrieve_lm(query, index, LmParams(1000.0), 50)
        expected = {}
        for d, slist in stems.items():
            if not any(t in slist for t in query.stems()):
                continue
            s = oracles.doc_lm_similarity(query.stems(), d, stems, 1000.0)
            if s > 0:
                expected[d] = s
        expected_order = sorted(expected, key=lambda d: (-expected[d], d))
        assert run.ids() == expected_order
        for (doc, score), exp_doc in zip(run.entries, expected_order):
            assert score == pytest.approx(expected[exp_doc], rel=1e-9)

    def test_insertion_order_invariance(self, tokenizer, store_factory):
        texts = {"d1": "a b", "d2": "b a a", "d3": "a c"}
        store_fwd = store_factory(texts)
        store_rev = store_factory(dict(reversed(list(texts.items()))))
        q = make_query("q", "a b", tokenizer)
        run_fwd = retrieve_lm(q, build_index(store_fwd), LmParams(100.0), 10)
        run_rev = retrieve_lm(q, build_index(store_rev), LmParams(100.0), 10)
        assert run_fwd.entries == run_rev.entries


class TestRankDocumentsLm:
    """The batched retrieval must equal the scalar formula bit for bit."""

    VOCAB = [f"w{i}" for i in range(15)]

    @pytest.fixture
    def index(self, store_factory):
        texts = _random_texts(np.random.default_rng(8), 80, self.VOCAB, min_len=3, max_len=60)
        texts["t1"] = texts["t2"] = "w1 w2 w3 w1"  # identical documents tie
        index = build_index(store_factory(texts))
        assert len(set(index.doc_lengths.values())) > 20
        return index

    def _check(self, terms, index, mu, k):
        params = LmParams(mu)
        got = rank_documents_lm(terms, index, params, k)
        assert got == row_references.lm_top_k(terms, index, params, k)
        return got

    def test_random_queries(self, index):
        rng = np.random.default_rng(9)
        pool = self.VOCAB + ["zebra"]
        for _ in range(40):
            terms = [str(t) for t in rng.choice(pool, size=int(rng.integers(1, 8)))]
            for mu in (0.0, 1.0, 1500.0, 2500):
                for k in (1, 7, 100):
                    self._check(terms, index, mu, k)

    def test_mu_zero_drops_docs_missing_a_term(self, index):
        got = self._check(["w1", "w2"], index, 0.0, 1000)
        postings = row_references.postings_of(index)
        holding_any = {d for t in ("w1", "w2") for d, _ in postings[t]}
        holding_all = {
            d for d in holding_any
            if len(index.positions("w1", d)) and len(index.positions("w2", d))
        }
        assert {d for d, _ in got} == holding_all < holding_any

    def test_repeated_terms_count_twice(self, index):
        once = self._check(["w3", "w5"], index, 1500.0, 1000)
        twice = self._check(["w3", "w3", "w5"], index, 1500.0, 1000)
        assert once != twice

    def test_out_of_vocabulary_terms_dropped(self, index):
        with_oov = self._check(["w4", "zebra", "w11"], index, 1500.0, 1000)
        assert with_oov == rank_documents_lm(["w4", "w11"], index, LmParams(1500.0), 1000)
        assert self._check(["zebra", "yak"], index, 1500.0, 10) == []

    def test_tie_at_kth_place_breaks_by_id(self, index):
        full = self._check(["w1", "w2", "w3"], index, 1500.0, 1000)
        k = [d for d, _ in full].index("t1") + 1
        top = self._check(["w1", "w2", "w3"], index, 1500.0, k)
        assert len(top) == k < len(full)
        assert top[-1][0] == "t1" and full[k] == ("t2", top[-1][1])


    def test_duplicate_documents_tie_across_every_cut(self, store_factory):
        texts = _random_texts(np.random.default_rng(10), 30, self.VOCAB, min_len=3, max_len=30)
        for n in range(6):
            texts[f"dup{n}"] = "w1 w2 w3 w1 w7"
        index = build_index(store_factory(texts))
        full = self._check(["w1", "w7", "w3"], index, 300.0, 1000)
        first = [d for d, _ in full].index("dup0")
        assert [d for d, _ in full[first : first + 6]] == [f"dup{n}" for n in range(6)]
        for k in range(1, len(full) + 2):
            assert self._check(["w1", "w7", "w3"], index, 300.0, k) == full[:k]

    def test_subnormal_scores(self, index):
        """A tiny mu makes a missing term's theta subnormal, and many repeats
        of it pull the log sums to where exp is subnormal or 0."""
        subnormal = 0
        for mu in (1e-300, 1e-310, 1e-318, 1e-320, 1e-321):
            for repeats in (5, 40, 400):
                terms = ["w1"] + ["w13"] * repeats
                full = self._check(terms, index, mu, 1000)
                subnormal += sum(0.0 < s < 2.2250738585072014e-308 for _, s in full)
                for k in range(1, len(full) + 1):
                    assert rank_documents_lm(terms, index, LmParams(mu), k) == full[:k]
        assert subnormal > 0


class TestPairCountersEqualLoops:
    CASES = [
        ([], [], False),
        ([], [3], False),
        ([3], [], False),
        ([0, 3, 5], [0, 3, 5], True),
        ([2, 4, 9, 10, 30], [2, 4, 9, 10, 30], True),
        ([0, 1, 2, 3], [], True),
        ([], [], True),
        ([0, 4, 20], [1, 5, 6, 40], False),
        ([0], [7], False),
        ([0], [8], False),
        ([7], [0], False),
        ([8], [0], False),
        ([0, 7], [0, 7], True),
        ([0, 8], [0, 8], True),
    ]

    @pytest.mark.parametrize("a,b,same", CASES)
    def test_cases(self, a, b, same):
        assert count_window_pairs(a, b, same) == row_references.count_window_pairs(a, b, same)
        assert count_ordered_pairs(a, b) == row_references.count_ordered_pairs(a, b)

    def test_window_edges(self):
        assert count_window_pairs([0], [7], same_term=False) == 1
        assert count_window_pairs([0], [8], same_term=False) == 0
        assert count_window_pairs([0, 7], [], same_term=True) == 1
        assert count_window_pairs([0, 8], [], same_term=True) == 0

    def test_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = np.sort(rng.choice(60, size=int(rng.integers(0, 12)), replace=False))
            b = np.sort(rng.choice(60, size=int(rng.integers(0, 12)), replace=False))
            a, b = a.astype(np.int32), b.astype(np.int32)
            ref_a, ref_b = a.tolist(), b.tolist()
            assert count_ordered_pairs(a, b) == row_references.count_ordered_pairs(ref_a, ref_b)
            for same in (False, True):
                got = count_window_pairs(a, b, same)
                assert got == row_references.count_window_pairs(ref_a, ref_b, same)

    @pytest.mark.parametrize("corpus_fn", [_tiny, _noisy])
    def test_scan_pairs_over_corpora(self, tmp_path, tokenizer, corpus_fn):
        index = build_index(_synthetic_store(tmp_path, corpus_fn, tokenizer))
        postings = row_references.postings_of(index)
        rng = np.random.default_rng(5)
        frequent = sorted(index.stems, key=lambda s: -index.document_frequency(s))[:12]
        stems = frequent + [str(s) for s in rng.choice(index.stems, size=12)] + ["zebra"]
        for a in stems:
            for b in stems:
                for ordered in (True, False):
                    got = index._scan_pairs(a, b, ordered)
                    assert got == row_references.scan_pairs(postings, a, b, ordered), (a, b)


class TestSdm:
    def test_ordered_adjacency(self, store_factory, tokenizer):
        store = store_factory({"d1": "a b c", "d2": "a c b"})
        stems = _stems(store)
        assert oracles.ordered_count(stems["d1"], "a", "b") == 1
        pos_a = [0]
        assert count_ordered_pairs(pos_a, [1]) == 1
        assert count_ordered_pairs([0], [2]) == 0

    def test_unordered_window(self):
        # doc "a c b": a at 0, b at 2 fit in a window of 8.
        assert count_window_pairs([0], [2], same_term=False) == 1
        assert count_window_pairs([0], [9], same_term=False) == 0
        assert count_window_pairs([0, 3, 5], [0, 3, 5], same_term=True) == 3

    def test_equals_per_document_scan(self, tmp_path, tokenizer):
        index = build_index(store := _synthetic_store(tmp_path, _noisy, tokenizer))
        rng = np.random.default_rng(4)
        for n in range(10):
            text = " ".join(rng.choice(index.stems, size=int(rng.integers(1, 6))))
            query = make_query(f"q{n}", text + (" " + text.split()[0]) * (n % 2), tokenizer)
            for doc in store.documents[::7]:
                for mu in (0.0, 1500.0):
                    got = sdm_components(query, doc, index, LmParams(mu))
                    assert got == row_references.sdm_components(query, doc, index, mu)

    def test_single_term_query_zero_pairs(self, store_factory, tokenizer):
        store = store_factory({"d1": "a b c"})
        index = build_index(store)
        q = make_query("q", "a", tokenizer)
        f_t, f_o, f_u = sdm_components(q, store.get("d1"), index, LmParams(10.0))
        assert f_o == 0.0 and f_u == 0.0

    def test_against_window_scanner_oracle(self, store_factory, tokenizer):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(8)]
        store = store_factory(_random_texts(rng, 30, vocab, 5, 30))
        index = build_index(store)
        stems = _stems(store)
        query = make_query("q", "w0 w3 w3 w7", tokenizer)
        for doc in store.documents:
            got = sdm_components(query, doc, index, LmParams(50.0))
            expected = oracles.sdm_components(query.stems(), stems[doc.doc_id], stems, 50.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_unigram_only_reproduces_lm_ordering(self, store_factory, tokenizer):
        rng = np.random.default_rng(23)
        vocab = [f"w{i}" for i in range(10)]
        store = store_factory(_random_texts(rng, 40, vocab))
        index = build_index(store)
        query = make_query("q", "w2 w4", tokenizer)
        run = retrieve_lm(query, index, LmParams(800.0), 40)
        weights = SdmWeights(1.0, 0.0, 0.0)
        scored = []
        for doc_id in run.ids():
            f_t, _, _ = sdm_components(query, store.get(doc_id), index, LmParams(800.0))
            scored.append((doc_id, math.exp(f_t)))
        reranked = sorted(scored, key=lambda kv: (-kv[1], kv[0]))
        assert [d for d, _ in reranked] == run.ids()

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            SdmWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SdmWeights(-0.1, 0.6, 0.5)
        SdmWeights(0.8, 0.1, 0.1)

    def test_log_floor_keeps_components_finite(self, store_factory, tokenizer):
        # mu=0 with an absent term would be ln(0); the floor substitutes -50.
        store = store_factory({"d1": "a b c", "d2": "z z"})
        index = build_index(store)
        q = make_query("q", "z b", tokenizer)
        f_t, f_o, f_u = sdm_components(q, store.get("d1"), index, LmParams(0.0))
        assert f_t == pytest.approx(-50.0 + math.log(1 / 3))
        assert f_o == -50.0 and f_u == -50.0


class TestQueryTypeIntegration:
    def test_query_repeated_terms_share_mle(self, store_factory, tokenizer):
        store = store_factory({"d1": "a a b", "d2": "b b a"})
        index = build_index(store)
        q = Query("q", "a a b", tokenizer)
        got = doc_lm_similarity(q.stems(), "d1", index, LmParams(7.0))
        expected = oracles.doc_lm_similarity(
            ["a", "a", "b"], "d1", _stems(store), 7.0
        )
        assert got == pytest.approx(expected, rel=1e-12)
