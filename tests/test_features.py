import math
from collections import Counter

import numpy as np
import pytest

import oracles
import row_references
from conftest import TINY_STOPWORDS, make_query
from psgrank.features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    ConceptProfile,
    FeatureMatrix,
    FeatureSchema,
    FeatureVector,
    PassageFeatureExtractor,
    SchemaError,
    SemanticResources,
    concat,
    concat_schemas,
    doc_features,
    esa_retrieval_profile,
    load_embeddings,
    load_entities,
    load_synonyms,
    minmax_normalize,
    profile_cosine,
    read_svmlight,
    top_tfidf_stems,
    write_svmlight,
)
from psgrank.index import LmParams, build_index, retrieve_lm
from psgrank.passage import SegmentationParams, segment


def _vec(values, schema=None, qid="q", item="i"):
    schema = schema or FeatureSchema("test", tuple(f"f{i}" for i in range(len(values))))
    return FeatureVector(schema, tuple(values), qid, item)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema("bad", ("a", "a"))

    def test_without_unknown_feature(self):
        with pytest.raises(SchemaError, match="unknown"):
            DOC_SCHEMA.without({"NotAFeature"})

    def test_concat_length_additivity(self):
        a = FeatureSchema("a", ("x", "y"))
        b = FeatureSchema("b", ("z",))
        combined = concat_schemas(a, b)
        assert len(combined) == 3
        assert combined.boundaries == (0, 2)

    def test_concat_collision(self):
        a = FeatureSchema("a", ("x",))
        b = FeatureSchema("b", ("x",))
        with pytest.raises(SchemaError, match="collision"):
            concat_schemas(a, b)
        combined = concat_schemas(a, b, a_prefix="l.", b_prefix="r.")
        assert combined.features == ("l.x", "r.x")

    def test_jpds_arity_from_paper_footnote(self):
        without_ql = concat_schemas(
            DOC_SCHEMA, PSG_SCHEMA, a_prefix="d.", b_prefix="p.",
            exclusions={"DocQuerySim", "QueryLength"},
        )
        with_ql = concat_schemas(
            DOC_SCHEMA, PSG_SCHEMA, a_prefix="d.", b_prefix="p.",
            exclusions={"DocQuerySim"},
        )
        assert len(without_ql) == 24
        assert len(with_ql) == 25

    def test_vector_concat_values(self):
        a = _vec([1.0, 2.0], FeatureSchema("a", ("x", "y")))
        b = _vec([3.0, 4.0], FeatureSchema("b", ("z", "w")))
        combined = concat(a, b, exclusions={"z"}, a_prefix="d.", b_prefix="p.")
        assert combined.values == (1.0, 2.0, 4.0)
        assert combined.schema.features == ("d.x", "d.y", "p.w")

    def test_vector_length_checked(self):
        with pytest.raises(SchemaError):
            FeatureVector(FeatureSchema("a", ("x",)), (1.0, 2.0), "q", "i")

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            FeatureVector(FeatureSchema("a", ("x",)), (float("inf"),), "q", "i")


class TestMinMaxNormalize:
    def test_basic(self):
        schema = FeatureSchema("s", ("f",))
        vecs = [_vec([v], schema, item=str(i)) for i, v in enumerate([2.0, 4.0, 6.0])]
        normed = minmax_normalize(FeatureMatrix.from_vectors(vecs)).vectors()
        assert [v.values[0] for v in normed] == [0.0, 0.5, 1.0]

    def test_constant_maps_to_zero(self):
        schema = FeatureSchema("s", ("f",))
        vecs = [_vec([5.0], schema, item=str(i)) for i in range(2)]
        normed = minmax_normalize(FeatureMatrix.from_vectors(vecs)).vectors()
        assert [v.values[0] for v in normed] == [0.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        schema = FeatureSchema("s", tuple(f"f{i}" for i in range(4)))
        vecs = [
            _vec(rng.uniform(-5, 5, size=4), schema, item=str(i)) for i in range(9)
        ]
        once = minmax_normalize(FeatureMatrix.from_vectors(vecs))
        twice = minmax_normalize(once)
        for a, b in zip(once.vectors(), twice.vectors()):
            assert a.values == pytest.approx(b.values, abs=1e-15)

    def test_mixed_queries_rejected(self):
        schema = FeatureSchema("s", ("f",))
        vecs = [
            FeatureVector(schema, (1.0,), "q1", "a"),
            FeatureVector(schema, (2.0,), "q2", "b"),
        ]
        with pytest.raises(SchemaError):
            minmax_normalize(FeatureMatrix.from_vectors(vecs))

    def test_matrix_equals_per_row_formula(self):
        import row_references

        rng = np.random.default_rng(33)
        schema = FeatureSchema("s", tuple(f"f{i}" for i in range(7)))
        for n in (1, 2, 9, 166):
            mat = rng.normal(size=(n, 7)) * 10.0 ** rng.integers(-4, 4, size=(n, 7))
            mat[:, 2] = 3.25  # a constant column maps to 0
            mat[: n // 2, 5] = 0.0
            vecs = [_vec(row, schema, item=f"i{i}") for i, row in enumerate(mat)]
            got = minmax_normalize(FeatureMatrix.from_vectors(vecs)).vectors()
            assert got == row_references.minmax_rows(vecs)

    def test_empty_matrix_passes_through(self):
        empty = FeatureMatrix(DOC_SCHEMA, "q", (), [])
        assert len(minmax_normalize(empty)) == 0


class TestFeatureMatrix:
    def test_checked_once_at_construction(self):
        schema = FeatureSchema("s", ("a", "b"))
        with pytest.raises(SchemaError, match="'y'"):
            FeatureMatrix(schema, "q", ("x", "y"), [[0.0, 1.0], [float("nan"), 2.0]])
        with pytest.raises(SchemaError):
            FeatureMatrix(schema, "q", ("x",), [[0.0, 1.0, 2.0]])
        m = FeatureMatrix(schema, "q", ["x", "y"], [[0.0, 1.0], [2.0, 3.0]])
        assert len(m) == 2 and m.item_ids == ("x", "y")
        assert m.values.dtype == np.float64 and m.values.flags.c_contiguous
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_rows_take_columns_and_vectors(self):
        schema = FeatureSchema("s", ("a", "b", "c"))
        m = FeatureMatrix(schema, "q", ("x", "y", "z"), np.arange(9.0).reshape(3, 3))
        assert m.rows(["z", "x"]) == [2, 0]
        taken = m.take(["z", "x"])
        assert taken.item_ids == ("z", "x") and taken.values.tolist() == [[6, 7, 8], [0, 1, 2]]
        sub = m.columns(schema.without(["b"]))
        assert sub.values.tolist() == [[0, 2], [3, 5], [6, 8]]
        assert sub.values.flags.c_contiguous
        assert m.vectors()[1] == FeatureVector(schema, (3.0, 4.0, 5.0), "q", "y")
        assert FeatureMatrix.from_vectors(m.vectors()).values.tolist() == m.values.tolist()
        with pytest.raises(ValueError):
            FeatureMatrix.from_vectors([])


class TestDocFeatures:
    def test_sw1_example(self, store_factory, tokenizer):
        store = store_factory({"d1": "the cat the dog"})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = doc_features(q, store.get("d1"), index, LmParams(10.0), tokenizer.stopwords)
        assert vec.value_of("SW1") == pytest.approx(0.5)

    def test_entropy_uniform_four_terms(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat dog bird fish"})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = doc_features(q, store.get("d1"), index, LmParams(10.0), tokenizer.stopwords)
        assert vec.value_of("Ent") == pytest.approx(math.log(4))

    def test_empty_document(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat", "d2": ""})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = doc_features(q, store.get("d2"), index, LmParams(10.0), tokenizer.stopwords)
        assert vec.value_of("SW1") == 0.0
        assert vec.value_of("Ent") == 0.0

    def test_all_six_against_oracle(self, store_factory, tokenizer):
        store = store_factory(
            {
                "d1": "the cat sat of the mat and cat ran",
                "d2": "dog cat dog bird the end",
                "d3": "an owl of prey hunts at night",
            }
        )
        index = build_index(store)
        q = make_query("q", "cat dog", tokenizer)
        stems = {d.doc_id: d.stems() for d in store.documents}
        for doc in store.documents:
            vec = doc_features(q, doc, index, LmParams(25.0), tokenizer.stopwords)
            f_t, f_o, f_u = oracles.sdm_components(q.stems(), stems[doc.doc_id], stems, 25.0)
            lower = [t.surface.lower() for t in doc.tokens]
            expected = (
                f_t,
                f_o,
                f_u,
                oracles.sw1(lower, set(TINY_STOPWORDS)),
                oracles.sw2(lower, set(TINY_STOPWORDS)),
                oracles.entropy(stems[doc.doc_id]),
            )
            assert vec.values == pytest.approx(expected, rel=1e-12, abs=1e-15)


def _psg_fixture(store_factory, tokenizer):
    """3 docs x 2 passages with full semantic resources."""
    texts = {
        "d1": "cat dog bird the cat runs fast and loud here now",
        "d2": "the dog barks cat cat meows dog dog bird flies up",
        "d3": "fish swim deep bird nests high cat naps dog waits by",
    }
    store = store_factory(texts)
    index = build_index(store)
    seg = SegmentationParams(window_len=6)
    passages_by_doc = {d: segment(store.get(d), seg) for d in texts}
    rng = np.random.default_rng(17)
    vocab = sorted({s for doc in store.documents for s in doc.stems()})
    embeddings = {w: rng.standard_normal(8) for w in vocab if w not in ("bird",)}
    synonyms = {"cat": frozenset({"feline", "meow"}), "dog": frozenset({"bark"})}
    entities = {
        "q1": frozenset({"E1", "E2"}),
        "d1#0": frozenset({"E1"}),
        "d2#0": frozenset({"E2", "E3"}),
        "d3#1": frozenset({"E9"}),
    }
    resources = SemanticResources(
        embeddings=embeddings, synonyms=synonyms, entities=entities, esa_index=index
    )
    query = make_query("q1", "cat dog", tokenizer)
    return store, index, passages_by_doc, resources, query


class TestPassageFeatures:
    def test_all_twenty_against_oracle(self, store_factory, tokenizer):
        store, index, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )
        mu = 30.0
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            resources, LmParams(mu),
        )
        for d in sorted(passages_by_doc):
            for p in passages_by_doc[d]:
                got = extractor.vector(p)
                expected = oracles.passage_feature_vector(
                    query, store, passages_by_doc, resources, mu, p,
                    set(TINY_STOPWORDS),
                )
                assert got.values == pytest.approx(expected, rel=1e-9, abs=1e-12), (
                    p.passage_id
                )

    def test_single_passage_document_degenerate_stats(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat dog runs", "d2": "bird flies south"})
        index = build_index(store)
        passages_by_doc = {
            d: segment(store.get(d), SegmentationParams(window_len=300))
            for d in ("d1", "d2")
        }
        query = make_query("q", "cat", tokenizer)
        extractor = PassageFeatureExtractor(
            query, store, index, ["d1", "d2"], passages_by_doc,
            SemanticResources(), LmParams(100.0),
        )
        vec = extractor.vector(passages_by_doc["d1"][0])
        assert vec.value_of("LengthRatio") == 1.0
        assert vec.value_of("PsgLocation") == 1.0
        assert vec.value_of("MaxPDSim") == vec.value_of("AvgPDSim")
        assert vec.value_of("StdPDSim") == 0.0

    def test_term_and_synonym_overlap_defaults(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat naps here", "d2": "bird sings"})
        index = build_index(store)
        passages_by_doc = {
            d: segment(store.get(d), SegmentationParams(window_len=300))
            for d in ("d1", "d2")
        }
        query = make_query("q", "cat dog", tokenizer)
        extractor = PassageFeatureExtractor(
            query, store, index, ["d1", "d2"], passages_by_doc,
            SemanticResources(), LmParams(100.0),
        )
        vec = extractor.vector(passages_by_doc["d1"][0])
        assert vec.value_of("TermOverlap") == pytest.approx(0.5)
        assert vec.value_of("SynonymsOverlap") == pytest.approx(0.5)

    def test_missing_resources_degrade_to_zero(self, store_factory, tokenizer):
        store, index, passages_by_doc, _, query = _psg_fixture(store_factory, tokenizer)
        resources = SemanticResources()  # everything missing, no concept index
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            resources, LmParams(30.0),
        )
        vec = extractor.vector(passages_by_doc["d1"][0])
        assert vec.value_of("W2V") == 0.0
        assert vec.value_of("Entity") == 0.0
        assert vec.value_of("ESA") == 0.0
        assert len(resources.degradations()) == 4

    def test_normalized_sims_sum_to_one(self, store_factory, tokenizer):
        store, index, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            resources, LmParams(30.0),
        )
        vectors = extractor.all_vectors()
        total_psg = sum(v.value_of("PsgQuerySim") for v in vectors)
        assert total_psg == pytest.approx(1.0, abs=1e-9)
        per_doc = {}
        for v in vectors:
            per_doc.setdefault(v.item_id.rsplit("#", 1)[0], v.value_of("DocQuerySim"))
        assert sum(per_doc.values()) == pytest.approx(1.0, abs=1e-9)

    def test_entity_jaccard_symmetric_and_bounded(self, store_factory, tokenizer):
        rng = np.random.default_rng(4)
        pool = [f"E{i}" for i in range(6)]
        for _ in range(50):
            a = frozenset(rng.choice(pool, size=int(rng.integers(0, 5)), replace=False))
            b = frozenset(rng.choice(pool, size=int(rng.integers(0, 5)), replace=False))
            union = a | b
            jac_ab = len(a & b) / len(union) if union else 0.0
            jac_ba = len(b & a) / len(union) if union else 0.0
            assert jac_ab == jac_ba
            assert 0.0 <= jac_ab <= 1.0

    def test_esa_identity_when_pseudo_query_matches(self, store_factory, tokenizer):
        # A passage whose keyword pseudo-query equals the query yields
        # identical retrieval profiles, hence cosine 1.
        store = store_factory(
            {
                "d1": "zebu yak",
                "d2": "zebu crane stork heron",
                "d3": "yak crane finch robin",
                "d4": "stork finch robin heron",
            }
        )
        index = build_index(store)
        passages_by_doc = {
            d: segment(store.get(d), SegmentationParams(window_len=300))
            for d in store.by_id
        }
        query = make_query("q", "zebu yak", tokenizer)
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            SemanticResources(esa_index=index), LmParams(50.0),
        )
        vec = extractor.vector(passages_by_doc["d1"][0])
        assert set(top_tfidf_stems(Counter(["zebu", "yak"]), index)) == {"zebu", "yak"}
        assert vec.value_of("ESA") == pytest.approx(1.0, abs=1e-12)

    def test_esa_cache_is_keyed_by_mu(self, store_factory, tokenizer):
        store, index, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )

        def esa_values(mu, cache):
            extractor = PassageFeatureExtractor(
                query, store, index, sorted(passages_by_doc), passages_by_doc,
                resources, LmParams(mu), esa_cache=cache,
            )
            return [v.value_of("ESA") for v in extractor.all_vectors()]

        shared = {}
        warm_500 = esa_values(500.0, shared)
        assert esa_values(2500.0, shared) == esa_values(2500.0, {})
        assert esa_values(500.0, shared) == warm_500 == esa_values(500.0, {})

    def test_corpus_order_invariance(self, tokenizer, store_factory):
        texts = {
            "d1": "cat dog bird the cat runs",
            "d2": "the dog barks cat cat meows",
            "d3": "fish swim deep bird nests high",
        }
        def extract(order):
            store = store_factory({k: texts[k] for k in order})
            index = build_index(store)
            passages_by_doc = {
                d: segment(store.get(d), SegmentationParams(window_len=3)) for d in texts
            }
            query = make_query("q1", "cat dog", tokenizer)
            extractor = PassageFeatureExtractor(
                query, store, index, sorted(passages_by_doc), passages_by_doc,
                SemanticResources(esa_index=index), LmParams(30.0),
            )
            return {v.item_id: v.values for v in extractor.all_vectors()}

        assert extract(["d1", "d2", "d3"]) == extract(["d3", "d1", "d2"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestConceptSpaceTables:
    """Profiles from the (stem, mu) log tables equal the dict references."""

    VOCAB = [f"w{i}" for i in range(12)]

    @staticmethod
    def _texts(vocab):
        rng = np.random.default_rng(21)
        # Unpadded ids inserted in shuffled order: string order is not
        # insertion order, and "d10" sorts before "d2".
        texts = {
            f"d{i}": " ".join(rng.choice(vocab, size=int(rng.integers(3, 40))))
            for i in rng.permutation(60)
        }
        texts["t1"] = texts["t2"] = "w1 w2 w3 w1"  # identical documents tie
        texts["e"] = ""  # length 0: at mu = 0 its smoothing denominator is 0
        return texts

    @pytest.fixture
    def index(self, store_factory):
        index = build_index(store_factory(self._texts(self.VOCAB)))
        assert len(set(index.doc_lengths.values())) > 10
        return index

    @staticmethod
    def _items(profile, index):
        ids = index.doc_table()[0]
        return [(ids[r], v) for r, v in zip(profile.ranks.tolist(), profile.values.tolist())]

    def _check(self, terms, index, mu, k=100):
        params = LmParams(mu)
        got = esa_retrieval_profile(terms, index, params, k)
        expected = row_references.esa_profile(terms, index, params, k)
        assert self._items(got, index) == sorted(expected.items())
        assert len(got) == len(expected)
        return got

    def test_warm_tables_equal_cold_across_mu(self, store_factory, tokenizer):
        texts = self._texts(self.VOCAB)
        warm = build_index(store_factory(texts))
        queries = ["w1 w2", "w3 w3 w7 zebra", "w5 w0 w11 w2"]
        for mu in (500.0, 2500.0, 500.0):
            cold = build_index(store_factory(texts))
            for text in queries:
                query = make_query("q", text, tokenizer)
                assert (
                    retrieve_lm(query, warm, LmParams(mu), 30).entries
                    == retrieve_lm(query, cold, LmParams(mu), 30).entries
                )
                got = esa_retrieval_profile(query.stems(), warm, LmParams(mu))
                want = esa_retrieval_profile(query.stems(), cold, LmParams(mu))
                assert got.ranks.tolist() == want.ranks.tolist()
                assert got.values.tolist() == want.values.tolist()

    def test_profiles_equal_reference(self, index):
        rng = np.random.default_rng(22)
        pool = self.VOCAB + ["zebra"]
        for _ in range(30):
            terms = [str(t) for t in rng.choice(pool, size=int(rng.integers(1, 8)))]
            for mu in (0.0, 500.0, 2500.0):
                for k in (1, 7, 100):
                    self._check(terms, index, mu, k)

    def test_zero_theta_oov_and_repeated_terms(self, index):
        smoothed = self._check(["w1", "w2"], index, 500.0)
        unsmoothed = self._check(["w1", "w2"], index, 0.0)
        assert 0 < len(unsmoothed) < len(smoothed)
        assert len(self._check(["zebra", "yak"], index, 500.0)) == 0
        once = self._check(["w3", "w5"], index, 500.0)
        twice = self._check(["w3", "w3", "w5", "zebra"], index, 500.0)
        assert once.values.tolist() != twice.values.tolist()

    def test_tie_cut_at_kth_place(self, index):
        full = row_references.lm_top_k(["w1", "w2", "w3"], index, LmParams(500.0), 1000)
        k = [d for d, _ in full].index("t1") + 1
        assert full[k] == ("t2", full[k - 1][1])
        top = self._check(["w1", "w2", "w3"], index, 500.0, k)
        ids = [d for d, _ in self._items(top, index)]
        assert len(ids) == k and "t1" in ids and "t2" not in ids

    def test_profile_cosine_equals_reference(self, index):
        ids = index.doc_table()[0]
        rng = np.random.default_rng(23)

        def random_profile():
            ranks = np.sort(rng.choice(len(ids), size=int(rng.integers(0, 12)), replace=False))
            values = rng.random(len(ranks))
            values[rng.random(len(ranks)) < 0.2] = 0.0
            return ConceptProfile(ranks, values)

        def as_dict(profile):
            return dict(self._items(profile, index))

        empty = ConceptProfile(np.empty(0, dtype=np.intp), np.empty(0))
        a = ConceptProfile(np.array([0, 3, 5]), np.array([1.0, 0.25, 0.0]))
        disjoint = ConceptProfile(np.array([1, 4]), np.array([0.5, 1.0]))
        pairs = [(empty, empty), (empty, a), (a, disjoint), (a, a)]
        pairs += [(random_profile(), random_profile()) for _ in range(200)]
        for x, y in pairs:
            assert profile_cosine(x, y) == row_references.profile_cosine(as_dict(x), as_dict(y))
        assert profile_cosine(a, a) == pytest.approx(1.0)
        assert profile_cosine(a, disjoint) == 0.0 == profile_cosine(empty, a)

    def test_top_tfidf_stems_equals_reference(self, index, store_factory):
        rng = np.random.default_rng(24)
        pool = self.VOCAB + ["zebra"]
        for _ in range(50):
            counts = Counter(str(t) for t in rng.choice(pool, size=int(rng.integers(0, 30))))
            for k in (1, 3, 20):
                assert top_tfidf_stems(counts, index, k) == row_references.top_tfidf_stems(
                    counts, index, k
                )
        # "a" and "b" share df and tf, so their tie breaks lexicographically.
        tied = build_index(store_factory({"d1": "a b c", "d2": "a b", "d3": "c d"}))
        counts = Counter({"b": 1, "zebra": 3, "a": 1, "d": 1})
        assert top_tfidf_stems(counts, tied, 2) == ["d", "a"]
        assert top_tfidf_stems(counts, tied, 2) == row_references.top_tfidf_stems(counts, tied, 2)


class TestResourceLoaders:
    def test_embeddings(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        table = load_embeddings(p)
        assert set(table) == {"cat", "dog"}
        assert table["cat"].tolist() == [1.0, 0.0]

    def test_embeddings_dim_mismatch(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("cat 1.0 0.0\ndog 0.0\n")
        with pytest.raises(ValueError, match="dimension"):
            load_embeddings(p)

    def test_synonyms(self, tmp_path):
        p = tmp_path / "syn.txt"
        p.write_text("cat: feline, kitty\ndog: canine\n")
        table = load_synonyms(p)
        assert table["cat"] == frozenset({"feline", "kitty"})

    def test_entities_confidence_threshold(self, tmp_path):
        p = tmp_path / "ent.tsv"
        p.write_text("q1\tE1\t0.5\nq1\tE2\t0.05\nd1#0\tE3\t0.1\n")
        table = load_entities(p)
        assert table["q1"] == frozenset({"E1"})
        assert table["d1#0"] == frozenset({"E3"})


class TestSvmlight:
    def test_round_trip(self, tmp_path):
        schema = FeatureSchema("s", ("f0", "f1"))
        vectors = [
            FeatureVector(schema, (0.25, 1.5), "q1", "a"),
            FeatureVector(schema, (0.0, -2.0), "q1", "b"),
            FeatureVector(schema, (3.0, 0.125), "q2", "c"),
        ]
        grades = {("q1", "a"): 2, ("q2", "c"): 1}
        path = tmp_path / "feats.svmlight"
        write_svmlight(path, vectors, grades)
        rows = read_svmlight(path, schema)
        assert [(q, i, g) for q, i, _, g in rows] == [
            ("q1", "a", 2), ("q1", "b", 0), ("q2", "c", 1)
        ]
        assert rows[0][2].values == (0.25, 1.5)
        assert rows[1][2].values == (0.0, -2.0)
