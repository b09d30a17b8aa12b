import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import row_references
from conftest import TINY_STOPWORDS, build_store, make_query, noisy_corpus
from psgrank.corpus import StopwordList, Tokenizer, ingest_corpus, load_topics
from psgrank.features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    ConceptProfile,
    FeatureMatrix,
    FeatureSchema,
    PassageFeatureExtractor,
    SchemaError,
    SemanticResources,
    _FAMILY_OF,
    _exact_matches,
    _TokenColumns,
    concat_schemas,
    term_entropies,
    doc_priors,
    doc_features,
    esa_retrieval_profile,
    keyword_tables,
    load_embeddings,
    load_entities,
    load_synonyms,
    minmax,
    minmax_normalize,
    normalize_by_sum,
    profile_cosine,
    query_similarities,
    read_svmlight,
    top_tfidf_stems,
    unit_keywords,
    write_svmlight,
)
from psgrank.index import LmParams, PositionalIndex, build_index, rank_documents_lm, retrieve_lm
from psgrank.passage import Passage, SegmentationParams, segment


def _matrix(rows):
    """One query's matrix from its rows, items and features named by position."""
    schema = FeatureSchema("test", tuple(f"f{i}" for i in range(len(rows[0]))))
    return FeatureMatrix(schema, "q", [str(i) for i in range(len(rows))], rows)


def _column(matrix, feature):
    return matrix.values[:, matrix.schema.index_of(feature)].tolist()


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

    def test_non_finite_rejected(self):
        schema = FeatureSchema("a", ("x",))
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(SchemaError, match="non-finite feature value for item 'j'"):
                FeatureMatrix(schema, "q", ("i", "j"), [[0.0], [bad]])

    def test_concat_exclusions_and_prefixes(self):
        a = FeatureSchema("a", ("x", "y"))
        b = FeatureSchema("b", ("z", "w"))
        combined = concat_schemas(a, b, exclusions={"z"}, a_prefix="d.", b_prefix="p.")
        assert combined.features == ("d.x", "d.y", "p.w")
        with pytest.raises(SchemaError, match="not in schema"):
            concat_schemas(a, b, exclusions={"x"})


class TestMinMaxNormalize:
    def test_basic(self):
        normed = minmax_normalize(_matrix([[2.0], [4.0], [6.0]]))
        assert normed.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_zero(self):
        normed = minmax_normalize(_matrix([[5.0], [5.0]]))
        assert normed.values[:, 0].tolist() == [0.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = minmax_normalize(_matrix(rng.uniform(-5, 5, size=(9, 4))))
        twice = minmax_normalize(once)
        assert twice.values.ravel().tolist() == pytest.approx(
            once.values.ravel().tolist(), abs=1e-15
        )

    def test_matrix_equals_per_row_formula(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 9, 166):
            mat = rng.normal(size=(n, 7)) * 10.0 ** rng.integers(-4, 4, size=(n, 7))
            mat[:, 2] = 3.25  # a constant column maps to 0
            mat[: n // 2, 5] = 0.0
            schema, rows = row_references.rows_of(_matrix(mat))
            got = minmax_normalize(_matrix(mat))
            assert row_references.rows_of(got) == (schema, row_references.minmax_rows(rows))

    def test_empty_matrix_passes_through(self):
        empty = FeatureMatrix(DOC_SCHEMA, "q", (), [])
        assert len(minmax_normalize(empty)) == 0


def _minmax_inputs():
    """Constant, one-item and random 1-D inputs, magnitudes 1e-300 to 1e300."""
    rng = np.random.default_rng(41)
    yield np.array([0.25, 0.25, 0.25])
    yield np.array([7.0])
    yield np.array([0.0])
    yield np.array([1.0, 1.0 + 2.0**-52])
    for n in (2, 5, 100, 166):
        yield rng.uniform(0.0, 1.0, size=n)
        yield rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n).astype(float)
        yield np.log1p(rng.integers(0, 5000, size=n).astype(float))


class TestSharedMinMax:
    """``minmax`` gives the bytes of each inline form it replaced."""

    def test_equals_concept_profile_form(self):
        for values in _minmax_inputs():
            assert minmax(values).tobytes() == row_references.esa_minmax(values).tobytes()

    def test_equals_docpsg_form(self):
        for values in _minmax_inputs():
            by_doc = {f"d{i}": v for i, v in enumerate(values.tolist())}
            assert minmax(values).tolist() == list(row_references.docpsg_minmax(by_doc).values())

    def test_no_items(self):
        assert minmax(np.zeros(0)).shape == (0,)
        assert row_references.esa_minmax(np.zeros(0)).shape == (0,)
        assert row_references.docpsg_minmax({}) == {}

    def test_columns_are_independent(self):
        for values in _minmax_inputs():
            wide = np.column_stack([values, np.full(len(values), 3.0), values[::-1]])
            got = minmax(wide)
            assert got[:, 0].tobytes() == minmax(values).tobytes()
            assert not got[:, 1].any()
            assert got[:, 2].tobytes() == minmax(values[::-1]).tobytes()


class TestNormalizeBySum:
    def test_each_over_the_sum(self):
        assert normalize_by_sum({"a": 1.0, "b": 3.0}) == {"a": 0.25, "b": 0.75}

    def test_zero_sum_maps_to_zero(self):
        assert normalize_by_sum({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}
        assert normalize_by_sum({}) == {}


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

    def test_item_id_listed_twice_rejected(self):
        schema = FeatureSchema("s", ("a",))
        with pytest.raises(SchemaError, match="query 'q7' lists an item id twice: 'a'"):
            FeatureMatrix(schema, "q7", ("b", "a", "c", "a"), [[0.0], [1.0], [2.0], [3.0]])
        m = FeatureMatrix(schema, "q7", ("b", "a", "c"), [[0.0], [1.0], [2.0]])
        with pytest.raises(SchemaError, match="lists an item id twice: 'c'"):
            m.take(["c", "b", "c"])

    def test_rows_take_and_columns(self):
        schema = FeatureSchema("s", ("a", "b", "c"))
        m = FeatureMatrix(schema, "q", ("x", "y", "z"), np.arange(9.0).reshape(3, 3))
        assert m.rows(["z", "x"]) == [2, 0]
        taken = m.take(["z", "x"])
        assert taken.item_ids == ("z", "x") and taken.values.tolist() == [[6, 7, 8], [0, 1, 2]]
        sub = m.columns(schema.without(["b"]))
        assert sub.values.tolist() == [[0, 2], [3, 5], [6, 8]]
        assert sub.values.flags.c_contiguous


def _doc_features(q, doc, index, mu, tokenizer):
    rows = doc_features(q, [doc], index, LmParams(mu), doc_priors([doc], tokenizer.stopwords))
    return rows[0].tolist()


class TestDocFeatures:
    def test_sw1_example(self, store_factory, tokenizer):
        store = store_factory({"d1": "the cat the dog"})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = _doc_features(q, store.get("d1"), index, 10.0, tokenizer)
        assert vec[DOC_SCHEMA.index_of("SW1")] == pytest.approx(0.5)

    def test_entropy_uniform_four_terms(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat dog bird fish"})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = _doc_features(q, store.get("d1"), index, 10.0, tokenizer)
        assert vec[DOC_SCHEMA.index_of("Ent")] == pytest.approx(math.log(4))

    def test_empty_document(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat", "d2": ""})
        index = build_index(store)
        q = make_query("q", "cat", tokenizer)
        vec = _doc_features(q, store.get("d2"), index, 10.0, tokenizer)
        assert vec[DOC_SCHEMA.index_of("SW1")] == 0.0
        assert vec[DOC_SCHEMA.index_of("Ent")] == 0.0

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
            vec = _doc_features(q, doc, index, 25.0, tokenizer)
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
            assert vec == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestDocEntropyFromTermIds:
    """The Ent prior over term-id columns equals the Counter form bit for
    bit, alone and with other documents in one pass."""

    def _check(self, doc, others=()):
        stopwords = StopwordList("tiny", TINY_STOPWORDS)
        got = doc_priors([doc], stopwords)[0][2]
        assert got.hex() == row_references.term_entropy(Counter(doc.stems())).hex()
        together = doc_priors([*others, doc, *others], stopwords)
        assert together[len(others)][2].hex() == got.hex()
        return got

    def test_empty_document(self, store_factory):
        assert self._check(store_factory({"d": ""}).get("d")) == 0.0

    def test_one_term_document(self, store_factory):
        assert self._check(store_factory({"d": "cat cat cat"}).get("d")) == 0.0

    def test_random_documents(self, store_factory, tokenizer):
        rng = np.random.default_rng(8)
        # Term ids in another order than first occurrence in the documents.
        tokenizer.tokenize(" ".join(f"w{i}" for i in range(40, -1, -1)))
        texts = {}
        for n in range(20):
            ids = rng.zipf(1.3, size=int(rng.integers(1, 300))) % 41
            texts[f"d{n}"] = " ".join(f"w{i}" for i in ids.tolist())
        documents = store_factory(texts).documents
        for doc in documents:
            self._check(doc, documents[:3])

    def test_long_document_among_short_ones(self, store_factory):
        # 3,000 distinct terms in one document, at most 3 in the others.
        texts = {"long": " ".join(f"x{i} x{i % 7}" for i in range(3000)), "empty": ""}
        texts.update({f"s{n}": " ".join(["cat", "dog", "owl"][: n % 3 + 1] * n) for n in range(6)})
        documents = store_factory(texts).documents
        for doc in documents:
            self._check(doc, documents)


class TestCountTablesAndEntropies:
    """Count tables and entropies equal the np.unique and per-position forms
    bytewise, over units of every size class, one-token and empty units."""

    @staticmethod
    def _units(rng):
        units = [[], [3]]
        for distinct in (1, 2, 3, 4, 5, 8, 9, 16, 17, 100, 1000, 1025):
            terms = rng.permutation(5000)[:distinct]
            repeats = rng.choice(terms, size=int(rng.integers(0, 2 * distinct)))
            units.append(rng.permutation(np.concatenate([terms, repeats])).tolist())
            units.append([int(terms[0])] * int(rng.integers(1, 4)))
            units.append([])
        order = rng.permutation(len(units))
        return [[], *(units[i] for i in order), [7], []]

    def _check(self, cols):
        got, want = cols.counts, row_references.token_counts(cols)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        entropies = term_entropies(*got[2:])
        assert entropies.tobytes() == row_references.term_entropies(*want[2:]).tobytes()
        return entropies

    def test_units_across_size_classes(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            self._check(_units(self._units(rng)))

    def test_one_token_and_empty_units(self):
        for units in ([], [[]], [[], []], [[4]], [[4], [], [4], [9]], [[2, 2, 2], [], [0]]):
            entropies = self._check(_units(units))
            assert entropies.tolist() == [0.0] * len(units)

    def test_documents_and_passages(self, store_factory):
        texts = {
            "long": " ".join(f"x{i} x{i % 7}" for i in range(3000)),
            "empty": "",
            "one": "cat",
            "mixed": "the cat and the dog of an owl cat dog",
        }
        docs = store_factory(texts).documents
        self._check(_TokenColumns(docs, [(0, d.length) for d in docs]))
        ranges = [(s, min(s + 30, d.length)) for d in docs for s in range(0, d.length + 1, 13)]
        owners = [d for d in docs for _ in range(0, d.length + 1, 13)]
        self._check(_TokenColumns(owners, ranges))


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
        matrix = extractor.matrix()
        rows = dict(zip(matrix.item_ids, map(tuple, matrix.values.tolist())))
        for d in sorted(passages_by_doc):
            for p in passages_by_doc[d]:
                got = rows[p.passage_id]
                expected = oracles.passage_feature_vector(
                    query, store, passages_by_doc, resources, mu, p,
                    set(TINY_STOPWORDS),
                )
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), (
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
        vec = dict(zip(PSG_SCHEMA.features, extractor.vector(passages_by_doc["d1"][0])))
        assert vec["LengthRatio"] == 1.0
        assert vec["PsgLocation"] == 1.0
        assert vec["MaxPDSim"] == vec["AvgPDSim"]
        assert vec["StdPDSim"] == 0.0

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
        vec = dict(zip(PSG_SCHEMA.features, extractor.vector(passages_by_doc["d1"][0])))
        assert vec["TermOverlap"] == pytest.approx(0.5)
        assert vec["SynonymsOverlap"] == pytest.approx(0.5)

    def test_missing_resources_degrade_to_zero(self, store_factory, tokenizer):
        store, index, passages_by_doc, _, query = _psg_fixture(store_factory, tokenizer)
        resources = SemanticResources()  # everything missing, no concept index
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            resources, LmParams(30.0),
        )
        vec = dict(zip(PSG_SCHEMA.features, extractor.vector(passages_by_doc["d1"][0])))
        assert vec["W2V"] == 0.0
        assert vec["Entity"] == 0.0
        assert vec["ESA"] == 0.0
        assert len(resources.degradations()) == 4

    def test_normalized_sims_sum_to_one(self, store_factory, tokenizer):
        store, index, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            resources, LmParams(30.0),
        )
        matrix = extractor.matrix()
        assert sum(_column(matrix, "PsgQuerySim")) == pytest.approx(1.0, abs=1e-9)
        per_doc = {}
        for item_id, sim in zip(matrix.item_ids, _column(matrix, "DocQuerySim")):
            per_doc.setdefault(item_id.rsplit("#", 1)[0], sim)
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
        assert vec[PSG_SCHEMA.index_of("ESA")] == pytest.approx(1.0, abs=1e-12)

    def test_esa_cache_is_keyed_by_mu(self, store_factory, tokenizer):
        store, index, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )

        def esa_values(mu, memo):
            extractor = PassageFeatureExtractor(
                query, store, index, sorted(passages_by_doc), passages_by_doc,
                resources, LmParams(mu), memo=memo,
            )
            return _column(extractor.matrix(), "ESA")

        shared = {}
        warm_500 = esa_values(500.0, shared)
        assert esa_values(2500.0, shared) == esa_values(2500.0, {})
        assert esa_values(500.0, shared) == warm_500 == esa_values(500.0, {})
        profiles = [key for key in shared if key[0] == "esa"]
        assert {key[2] for key in profiles} == {500.0, 2500.0}
        # The keyword tables read no mu: one entry serves both.
        assert [key for key in shared if key not in profiles] == [
            ("esa_terms", len(store.documents[0].vocabulary))
        ]

    def test_longer_vocabulary_rebuilds_keyword_tables(self, store_factory, tokenizer):
        store, _, passages_by_doc, resources, query = _psg_fixture(
            store_factory, tokenizer
        )

        def esa_values(store, passages_by_doc, memo):
            extractor = PassageFeatureExtractor(
                query, store, build_index(store), sorted(passages_by_doc), passages_by_doc,
                resources, LmParams(500.0), memo=memo,
            )
            return _column(extractor.matrix(), "ESA")

        shared = {}
        esa_values(store, passages_by_doc, shared)
        # A second store over the same tokenizer grows its vocabulary; its
        # new stems' ids lie past the first tables. The concept index stays.
        grown = store_factory({"g1": "heron cat stork dog crane", "g2": "dog ibis cat"})
        grown_passages = {
            d: segment(grown.get(d), SegmentationParams(window_len=3)) for d in ("g1", "g2")
        }
        warm = esa_values(grown, grown_passages, shared)
        assert warm == esa_values(grown, grown_passages, {})
        assert len({key for key in shared if key[0] == "esa_terms"}) == 2

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
            return row_references.table_of(extractor.matrix())

        assert extract(["d1", "d2", "d3"]) == extract(["d3", "d1", "d2"])

    def test_exact_match_equals_list_scan(self):
        rng = np.random.default_rng(53)
        vocab = ["a", "b", "c", "d"]
        cases = [([], []), ([], ["a"]), (["a"], []), (["a", "b"], ["a"]), (["a", "a"], ["a", "a"])]
        for _ in range(500):
            haystack = [vocab[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 15)))]
            needle = [vocab[i] for i in rng.integers(0, 3, size=int(rng.integers(0, 5)))]
            cases.append((needle, haystack))
            cases.append((needle, haystack + haystack[: len(needle)] + needle))
            cases.append((needle + haystack, haystack))  # longer than the haystack
        hits = 0
        for needle, haystack in cases:
            expected = row_references.is_subsequence(needle, haystack)
            ids = [vocab.index(t) for t in needle]
            got = _exact_matches(_units([[vocab.index(t) for t in haystack]]), ids)
            assert got.tolist() == [float(expected)]
            hits += expected
        assert 0 < hits < len(cases)
        # All haystacks as units of one column: a run crossing a unit
        # boundary is no match, and an unknown id (-1) matches nothing.
        for needle in (["a", "b"], ["c"], ["a", "a", "b"]):
            units = [haystack for _, haystack in cases]
            cols = _units([[vocab.index(t) for t in unit] for unit in units])
            ids = [vocab.index(t) for t in needle]
            got = _exact_matches(cols, ids)
            assert got.tolist() == [
                float(row_references.is_subsequence(needle, unit)) for unit in units
            ]
            assert not _exact_matches(cols, ids + [-1]).any()


def _units(units) -> _TokenColumns:
    """Token columns of consecutive units of term ids, as passages of one document."""
    terms = np.array([t for unit in units for t in unit], dtype=np.int64)
    doc = SimpleNamespace(term_ids=terms, stopword_ids=np.full(len(terms), -1))
    ends = np.cumsum([len(unit) for unit in units], dtype=np.int64).tolist()
    return _TokenColumns([doc] * len(units), list(zip([0] + ends[:-1], ends)))


def _hexes(values) -> list[str]:
    """Floats as hex strings, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


class _Case:
    """One query's passages over a store, and their per-passage reference rows."""

    def __init__(self, query, store, index, passages_by_doc, resources, mu):
        self.args = (query, store, index, sorted(passages_by_doc), passages_by_doc, resources)
        self.params = LmParams(mu)
        extractor = self.extractor()
        self.reference = {
            p.passage_id: row_references.passage_vector(extractor, p)
            for d in extractor.doc_ids for p in passages_by_doc[d]
        }

    def extractor(self) -> PassageFeatureExtractor:
        """A new extractor, so the concept profiles start from an empty cache."""
        return PassageFeatureExtractor(*self.args, self.params)


def _noisy_cases(root) -> list[_Case]:
    """The noisy corpus's queries over their top 12 documents, with synonyms,
    embeddings and entities, at two smoothings."""
    paths = noisy_corpus(root)
    store = ingest_corpus(paths["corpus"], "jsonl")
    index = build_index(store)
    queries = load_topics(paths["topics"], store.tokenizer)
    vocab = sorted({s for doc in store.documents for s in doc.stems()})
    rng = np.random.default_rng(31)

    def picks(pool, n):
        return frozenset(rng.choice(pool, size=n, replace=False).tolist())

    entity_pool = [f"E{i}" for i in range(5)]
    entities = {f"{d}#{i}": picks(entity_pool, 2) for d in store.doc_ids() for i in range(2)}
    entities.update({q.query_id: picks(entity_pool, 2) for q in queries})
    resources = SemanticResources(
        embeddings={w: rng.standard_normal(4) for w in vocab if rng.random() < 0.7},
        synonyms={s: picks(vocab, 3) for q in queries for s in q.stems()},
        entities=entities,
        esa_index=index,
    )
    seg = SegmentationParams(window_len=30)
    cases = []
    for query in queries:
        doc_ids = [d for d, _ in rank_documents_lm(query.stems(), index, LmParams(1000.0), 12)]
        passages_by_doc = {d: segment(store.get(d), seg) for d in doc_ids}
        for mu in (0.0, 1500.0):
            cases.append(_Case(query, store, index, passages_by_doc, resources, mu))
    return cases


def _edge_cases(tokenizer) -> list[_Case]:
    """Passages that are empty, of one term, shorter than the query, with
    a query run across a passage boundary or inside one, and with more
    tied keywords than the concept profile keeps."""
    texts = {
        "empty": "",
        "one": "cat",
        "same": "cat cat cat",
        "short": "owl the emu of yak gnu cat dog bird",
        "cross": "ant bee cow elk fox cat dog bird hen",
        "inside": "cat dog bird ant cat dog",
        "ties": " ".join(f"t{i:02d}" for i in reversed(range(25))) + " cat the dog cat",
    }
    store = build_store(texts, tokenizer)
    index = build_index(store)
    passages_by_doc = {
        d: segment(store.get(d), SegmentationParams(window_len=30 if d == "ties" else 6))
        for d in texts
    }
    resources = SemanticResources(
        embeddings={"cat": np.array([1.0, 0.5]), "owl": np.array([-0.25, 2.0])},
        synonyms={"cat": frozenset({"feline", "hen"}), "zebra": frozenset({"owl"})},
        entities={"q1": frozenset({"E1"}), "cross#1": frozenset({"E1", "E2"})},
        esa_index=index,
    )
    # "zebra" comes from another tokenizer, so the store's vocabulary lacks it.
    other = Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))
    queries = [
        make_query("q1", "cat dog", tokenizer),
        make_query("q2", "cat cat dog zebra", other),
        make_query("q3", "cat dog bird ant cat dog bird", tokenizer),
    ]
    return [
        _Case(query, store, index, passages_by_doc, resources, mu)
        for query in queries for mu in (0.0, 30.0)
    ]


@pytest.fixture(scope="module")
def noisy_cases(tmp_path_factory):
    return _noisy_cases(tmp_path_factory.mktemp("noisy"))


@pytest.fixture
def edge_cases(tokenizer):
    return _edge_cases(tokenizer)


class TestColumnFamilies:
    """Each column family of the matrix equals the per-passage reference bit
    for bit, and an ablated matrix equals the full matrix's columns."""

    @pytest.mark.parametrize(
        "features", list(dict.fromkeys(f for f, _ in _FAMILY_OF.values())), ids=lambda f: f[0]
    )
    @pytest.mark.parametrize("corpus", ["noisy", "edge"])
    def test_family_equals_reference(self, features, corpus, request):
        cases = request.getfixturevalue(f"{corpus}_cases")
        schema = FeatureSchema("family", features)
        at = [PSG_SCHEMA.index_of(f) for f in features]
        for case in cases:
            got = case.extractor().matrix(schema)
            full = case.extractor().matrix()
            assert got.item_ids == full.item_ids == tuple(case.reference)
            assert got.values.tobytes() == full.columns(schema).values.tobytes()
            for item_id, row in zip(got.item_ids, got.values.tolist()):
                expected = [case.reference[item_id][i] for i in at]
                assert _hexes(row) == _hexes(expected), (item_id, features)

    def test_edge_values(self, edge_cases):
        rows = row_references.table_of(edge_cases[3].extractor().matrix())[1]  # q2, mu = 30
        column = {
            f: {item_id: row[PSG_SCHEMA.index_of(f)] for item_id, row in rows.items()}
            for f in PSG_SCHEMA.features
        }
        assert column["Ent"]["empty#0"].hex() == "0x0.0p+0"  # not -0.0
        assert column["Ent"]["same#0"] == 0.0 and column["SW1"]["empty#0"] == 0.0
        assert set(column["ExactMatch"].values()) == {0.0}  # "zebra" is nowhere
        assert column["TermOverlap"]["short#1"] == 2 / 3  # cat and dog, not zebra
        assert column["TermOverlap"]["short#0"] == 0.0
        assert column["SynonymsOverlap"]["short#0"] == 1 / 3  # owl stands in for zebra
        assert column["SW1"]["short#0"] == 2 / 6
        q1 = edge_cases[1].extractor().matrix()
        exact = dict(zip(q1.item_ids, _column(q1, "ExactMatch")))
        assert exact["inside#0"] == 1.0
        assert exact["cross#0"] == exact["cross#1"] == 0.0  # "cat | dog" crosses

    def test_one_row_vector_equals_reference(self, edge_cases):
        for case in edge_cases:
            extractor = case.extractor()
            for item_id, expected in case.reference.items():
                doc_id = item_id.rsplit("#", 1)[0]
                passage = extractor.passages_by_doc[doc_id][int(item_id.rsplit("#", 1)[1])]
                assert _hexes(extractor.vector(passage)) == _hexes(expected)

    @pytest.mark.parametrize("corpus", ["noisy", "edge"])
    def test_passage_sims_equal_scalar_formula(self, corpus, request):
        for case in request.getfixturevalue(f"{corpus}_cases"):
            query, store, index, doc_ids, passages_by_doc, _ = case.args
            extractor = case.extractor()
            for d in doc_ids:
                expected = row_references.doc_lm_similarity(query.stems(), d, index, case.params)
                assert extractor.doc_sims[d].hex() == expected.hex()
                for p in passages_by_doc[d]:
                    counts = row_references.passage_term_counts(store.get(d), p)
                    expected = row_references.lm_similarity(
                        query.stems(), counts, p.length, index, case.params
                    )
                    assert extractor.psg_sims[p.passage_id].hex() == expected.hex()

    def test_passage_counts_past_int32_keys(self):
        # 1,000 documents of 3M tokens, each holding "a" at 5 and 2,999,999:
        # the keys row * stride + token pass 2^31, far above the int32
        # positions the index stores.
        doc_ids = [f"d{i:04d}" for i in range(1000)]
        index = PositionalIndex(
            stems=["a"], stem_bounds=np.array([0, 1000]),
            posting_docs=np.arange(1000, dtype=np.int32),
            posting_bounds=np.arange(0, 2001, 2),
            posting_positions=np.tile(np.array([5, 2_999_999], np.int32), 1000),
            doc_lengths=dict.fromkeys(doc_ids, 3_000_000), collection_length=3_000_000_000,
            doc_order=doc_ids, corpus_checksum="",
        )
        last = Passage("d0999#0", "d0999", 0, (0, 6), (0, 0))
        tail = Passage("d0999#1", "d0999", 1, (6, 3_000_000), (0, 0))
        passages_by_doc = {d: [] for d in doc_ids} | {"d0999": [last, tail]}
        _, psg_sims = query_similarities(["a"], index, doc_ids, passages_by_doc, LmParams(10.0))
        for p in (last, tail):
            expected = row_references.lm_similarity(
                ["a"], {"a": 1}, p.length, index, LmParams(10.0)
            )
            assert psg_sims[p.passage_id].hex() == expected.hex()

    def test_tied_keywords_break_by_stem(self, edge_cases):
        index = edge_cases[0].args[2]
        store = edge_cases[0].args[1]
        counts = Counter(store.get("ties").stems())
        keywords = top_tfidf_stems(counts, index)
        assert keywords == row_references.top_tfidf_stems(counts, index)
        # 25 terms share tf 1 and df 1, in reverse stem order in the text:
        # the first 20 by stem are kept.
        assert keywords == [f"t{i:02d}" for i in range(20)]


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


class TestKeywordsFromRunTables:
    """Keywords picked through the vocabulary's idf and string-rank tables,
    and profiles scored a block at a time, over a concept corpus that is
    not the run's (its own tokenizer, so its own vocabulary)."""

    RUN = {
        "d1": "ant bee cow elk fox gnu hen ibis jay kite",  # ten ties, tf 1
        "d2": "yak yak ant bee owl owl owl emu cat dog cat",
        "d3": "zebu zebu zebu lynx mole newt ant cow",  # stems the concept corpus lacks
        "d4": "",
        "d5": "cat dog bird cat dog fish cat emu owl yak bee",
    }
    CONCEPTS = {
        "c1": "ant bee cow elk fox gnu hen ibis jay kite",
        "c2": "ant bee cow elk fox gnu hen ibis jay kite",
        "c3": "yak owl emu cat dog bird fish",
        "c4": "cat cat dog owl yak",
        "c5": "bird fish ant",
        "c6": "newt",
    }

    @pytest.fixture
    def corpora(self, tokenizer):
        store = build_store(self.RUN, tokenizer)
        other = Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))
        concepts = build_index(build_store(self.CONCEPTS, other))
        assert concepts.document_frequency("zebu") == 0 < concepts.document_frequency("newt")
        return store, concepts

    def test_keywords_equal_reference(self, corpora):
        store, concepts = corpora
        vocabulary = store.documents[0].vocabulary
        tables = keyword_tables(vocabulary, concepts)
        for window in (3, 6, 30):
            passages = [
                p for d in self.RUN for p in segment(store.get(d), SegmentationParams(window))
            ]
            docs = [store.get(p.doc_id) for p in passages]
            cols = _TokenColumns(docs, [p.token_range for p in passages])
            for k in (1, 3, 20):
                picked = unit_keywords(cols, *tables, k)
                assert len(picked) == len(passages)
                for p, doc, ids in zip(passages, docs, picked):
                    counts = row_references.passage_term_counts(doc, p)
                    expected = row_references.top_tfidf_stems(counts, concepts, k)
                    assert [vocabulary[t] for t in ids.tolist()] == expected, (p.passage_id, k)
        # Nine of the ten stems of d1 tie (df 2; "ant" has df 3): string order.
        d1 = segment(store.get("d1"), SegmentationParams(30))
        cols = _TokenColumns([store.get("d1")], [d1[0].token_range])
        ids = unit_keywords(cols, *tables, 4)[0].tolist()
        assert [vocabulary[t] for t in ids] == ["bee", "cow", "elk", "fox"]

    def test_esa_column_over_another_corpus_equals_reference(self, corpora, tokenizer):
        store, concepts = corpora
        resources = SemanticResources(esa_index=concepts)
        index = build_index(store)
        passages_by_doc = {d: segment(store.get(d), SegmentationParams(4)) for d in self.RUN}
        schema = FeatureSchema("esa", ("ESA",))
        nonzero = 0
        for text in ("cat dog", "ant zebu owl", "newt"):
            query = make_query("q", text, tokenizer)
            for mu in (0.0, 7.0, 1500.0):
                case = _Case(query, store, index, passages_by_doc, resources, mu)
                got = case.extractor().matrix(schema)
                expected = [case.reference[i][PSG_SCHEMA.index_of("ESA")] for i in got.item_ids]
                assert got.values[:, 0].tobytes() == np.array(expected).tobytes(), (text, mu)
                nonzero += int(np.count_nonzero(got.values))
        assert nonzero > 0


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

    def test_embeddings_entry_not_a_number_names_the_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("cat 1.0 0.0\ndog 0.0 abc\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: could not convert string")):
            load_embeddings(p)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "NaN"])
    def test_embeddings_non_finite_entry_names_the_line(self, tmp_path, entry):
        p = tmp_path / "emb.txt"
        p.write_text(f"cat 1.0 0.0\ndog 0.0 {entry}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: embedding entries must be finite")):
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

    @pytest.mark.parametrize(
        "row", ["d1\tE2\tabc", "d1\tE2", "d1\tE2\t0.5\tx", "d1\tE2\tnan", "d1\tE2\t-NaN"]
    )
    def test_entities_bad_row_names_the_line(self, tmp_path, row):
        p = tmp_path / "ent.tsv"
        p.write_text(f"q1\tE1\t0.5\n{row}\n")
        message = f"{p}:2: expected item_id<TAB>entity_id<TAB>confidence (a number)"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_entities(p)


class TestSvmlight:
    SCHEMA = FeatureSchema("s", ("f0", "f1"))

    def test_round_trip(self, tmp_path):
        queries = [
            (FeatureMatrix(self.SCHEMA, "q1", ("a", "b"), [[0.25, 1.5], [0.0, -2.0]]), [2, 0]),
            (FeatureMatrix(self.SCHEMA, "q2", ("c",), [[3.0, 0.125]]), [1]),
        ]
        path = tmp_path / "feats.svmlight"
        write_svmlight(path, queries)
        got = read_svmlight(path, self.SCHEMA)
        assert [(m.query_id, m.item_ids, g) for m, g in got] == [
            ("q1", ("a", "b"), [2, 0]), ("q2", ("c",), [1])
        ]
        assert got[0][0].values.tolist() == [[0.25, 1.5], [0.0, -2.0]]
        assert got[0][0].schema == self.SCHEMA

    def test_bytes_survive_training_set_round_trip(self, tmp_path):
        from psgrank.ltr import TrainingSet

        extreme = [[-0.0, 5e-324], [1e300, 0.1 + 0.2], [-1e-300, 0.0]]
        queries = [
            (FeatureMatrix(self.SCHEMA, "q1", ("x", "a", "m"), extreme), [0, 3, 1]),
            (FeatureMatrix(self.SCHEMA, "q2", ("b",), [[0.30000000000000004, -0.0]]), [2]),
        ]
        first, second = tmp_path / "first.svmlight", tmp_path / "second.svmlight"
        write_svmlight(first, queries)
        write_svmlight(second, TrainingSet(read_svmlight(first, self.SCHEMA)).queries)
        assert second.read_bytes() == first.read_bytes()
        assert "1:-0.0 2:5e-324 # x" in first.read_text()

    def test_interleaved_queries_grouped_in_first_appearance_order(self, tmp_path):
        from psgrank.ltr import TrainingSet

        path = tmp_path / "mixed.svmlight"
        path.write_text(
            "1 qid:q2 1:0.5 # b\n"
            "2 qid:q1 2:7.0 # a\n"
            "\n"
            "0 qid:q2 1:0.25 2:1.0 # c\n"
        )
        got = read_svmlight(path, self.SCHEMA)
        assert [(m.query_id, m.item_ids, g) for m, g in got] == [
            ("q2", ("b", "c"), [1, 0]), ("q1", ("a",), [2])
        ]
        assert got[0][0].values.tolist() == [[0.5, 0.0], [0.25, 1.0]]
        grouped = tmp_path / "grouped.svmlight"
        write_svmlight(grouped, TrainingSet(got).queries)
        assert grouped.read_text() == (
            "2 qid:q1 1:0.0 2:7.0 # a\n"
            "1 qid:q2 1:0.5 2:0.0 # b\n"
            "0 qid:q2 1:0.25 2:1.0 # c\n"
        )

    @pytest.mark.parametrize(
        "row", ["0 qid:q1 0:0.2 # a", "0 qid:q1 3: # a", "0 qid:q1 x:1 # a", "0 q1 1:1 # a",
                "g qid:q1 1:1 # a", "0 qid:q1 1: # a", "0 qid:q1 1:1 # ok"],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, row):
        path = tmp_path / "bad.svmlight"
        path.write_text(f"1 qid:q1 1:0.5 2:0.5 # ok\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed SVMlight row")):
            read_svmlight(path, self.SCHEMA)
