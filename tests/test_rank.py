import math
import re
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import row_references
from conftest import (
    TINY_STOPWORDS,
    build_store,
    docpsg_ranking,
    json_without_cpu_features,
    make_query,
    plm_ranking,
    qsf_ranking,
)
from row_references import pstdev
from psgrank.evaluation import average_precisions
from psgrank.features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureMatrix,
    FeatureSchema,
    PassageFeatureExtractor,
    SemanticResources,
    doc_features,
)
from psgrank.corpus import StopwordList, Tokenizer
from psgrank.index import LmParams, build_index
from psgrank.ltr import LinearModel, score
from psgrank.passage import Passage, SegmentationParams, segment
from psgrank import rank as rank_module
from psgrank.rank import (
    FusionParams,
    PassageRanks,
    RankedList,
    SMPD_SCHEMA,
    _jpds_layout,
    _source_columns,
    build_fpd_vectors,
    build_jpdm_vectors,
    build_jpds_vectors,
    build_smpd_vectors,
    fusion_rows,
    jpds_schema,
    positional_similarities,
    read_trec_run,
    rerank_fpd,
    rerank_rrf,
    write_trec_run,
)


def _ranked(query_id, ids_scores):
    return RankedList(query_id, tuple(ids_scores))


class TestRankedList:
    def test_from_scores_orders_and_breaks_ties(self):
        rl = RankedList.from_scores("q", {"b": 1.0, "a": 1.0, "c": 2.0})
        assert rl.ids() == ["c", "a", "b"]

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RankedList("q", (("a", 1.0), ("b", 2.0)))
        with pytest.raises(ValueError, match="duplicate"):
            RankedList("q", (("a", 1.0), ("a", 0.5)))
        with pytest.raises(ValueError, match="ties"):
            RankedList("q", (("b", 1.0), ("a", 1.0)))

    def test_ranks_start_at_one(self):
        rl = RankedList.from_scores("q", {"a": 3.0, "b": 2.0})
        assert rl.ranks() == {"a": 1, "b": 2}

    def test_rank_maps_are_built_once_and_read_only(self):
        rl = RankedList.from_scores("q", {"d2#0": 3.0, "d1#1": 2.0, "d2#1": 1.5, "d1#0": 1.0})
        assert rl.ranks() is rl.ranks()
        assert rl.best_passage_ranks() is rl.best_passage_ranks()
        assert rl.best_passage_ranks() == {"d2": 1, "d1": 2}
        with pytest.raises(TypeError):
            rl.ranks()["d2#0"] = 4
        with pytest.raises(TypeError):
            rl.best_passage_ranks()["d1"] = 1
        with pytest.raises(TypeError):
            del rl.ranks()["d1#0"]
        assert rl.ranks() == {"d2#0": 1, "d1#1": 2, "d2#1": 3, "d1#0": 4}
        # The cache is not a field: equal lists stay equal and hash alike.
        fresh = RankedList("q", rl.entries)
        assert fresh == rl and hash(fresh) == hash(rl)

    def test_best_passage_ranks_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            pids = [f"d{d}#{i}" for d in range(6) for i in range(int(rng.integers(1, 5)))]
            rl = RankedList.from_scores("q", {p: float(rng.integers(0, 5)) for p in pids})
            rank = {p: r for r, (p, _) in enumerate(rl.entries, start=1)}
            expected = {}
            for p in pids:
                d = p.split("#")[0]
                expected[d] = min(expected.get(d, len(pids) + 1), rank[p])
            assert dict(rl.best_passage_ranks()) == expected


class TestRrScore:
    """The reciprocal rank 1/(nu + r): the one fusion row at alpha=1."""

    @staticmethod
    def _rr(rl, nu):
        scores, _ = fusion_rows(rl, [0] * len(rl), [1.0], [nu])
        return dict(zip(rl.ids(), scores[0].tolist()))

    def test_direct_substitution(self):
        rl = RankedList.from_scores("q", {"a": 2.0, "b": 1.0})
        assert self._rr(rl, 60.0)["a"] == pytest.approx(1 / 61)

    def test_nu_zero_top_is_one(self):
        rl = RankedList.from_scores("q", {"a": 2.0})
        assert self._rr(rl, 0.0)["a"] == 1.0

    def test_strictly_decreasing_in_rank(self):
        rl = RankedList.from_scores("q", {f"i{i}": float(-i) for i in range(10)})
        rr = self._rr(rl, 30.0)
        scores = [rr[f"i{i}"] for i in range(10)]
        assert all(a > b for a, b in zip(scores, scores[1:]))


class TestNuBound:
    def test_nu_below_two_to_the_53(self):
        # Past 2**53, ranks round together in nu + rank, and nu is rejected.
        assert FusionParams(nu=2.0**53 - 1).nu == 2.0**53 - 1
        assert 2.0**52 + 1 != 2.0**52 + 2 and 1e17 + 1 == 1e17 + 2
        for bad in (2.0**53, 1e17, 1.7e308):
            with pytest.raises(ValueError, match=r"nu must be below 2\*\*53"):
                FusionParams(nu=bad)
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="nu must be >= 0 and finite"):
                FusionParams(nu=bad)


class TestRerankRrf:
    def _lists(self):
        doc_list = RankedList.from_scores("q", {"d1": 4.0, "d2": 3.0, "d3": 2.0, "d4": 1.0})
        psg_list = RankedList.from_scores(
            "q",
            {"d3#0": 9.0, "d1#0": 8.0, "d4#1": 7.0, "d2#0": 6.0, "d4#0": 5.0, "d1#1": 4.0},
        )
        return doc_list, psg_list

    def test_alpha_one_is_identity(self):
        doc_list, psg_list = self._lists()
        out = rerank_rrf(doc_list, psg_list, FusionParams(nu=60.0, alpha=1.0))
        assert out.ids() == doc_list.ids()

    def test_alpha_zero_orders_by_best_passage(self):
        doc_list, psg_list = self._lists()
        out = rerank_rrf(doc_list, psg_list, FusionParams(nu=60.0, alpha=0.0))
        assert out.ids() == ["d3", "d1", "d4", "d2"]

    def test_hand_evaluated_fusion(self):
        doc_list, psg_list = self._lists()
        out = rerank_rrf(doc_list, psg_list, FusionParams(nu=60.0, alpha=0.5))
        doc_rank = {d: r for r, (d, _) in enumerate(doc_list.entries, 1)}
        psg_rank = {p: r for r, (p, _) in enumerate(psg_list.entries, 1)}
        best = {}
        for pid in psg_rank:
            d = pid.rsplit("#", 1)[0]
            best[d] = max(best.get(d, 0.0), 1 / (60 + psg_rank[pid]))
        expected = {
            d: 0.5 / (60 + doc_rank[d]) + 0.5 * best[d] for d in doc_rank
        }
        for doc_id, got_score in out.entries:
            assert got_score == pytest.approx(expected[doc_id], rel=1e-12)

    def test_doc_without_ranked_passage_gets_zero_term(self):
        doc_list = RankedList.from_scores("q", {"d1": 2.0, "d2": 1.0})
        psg_list = RankedList.from_scores("q", {"d1#0": 1.0})
        out = rerank_rrf(doc_list, psg_list, FusionParams(nu=0.0, alpha=0.5))
        assert dict(out.entries)["d2"] == pytest.approx(0.5 / 2)

    def test_unknown_passage_doc_rejected(self):
        doc_list = RankedList.from_scores("q", {"d1": 1.0})
        psg_list = RankedList.from_scores("q", {"dX#0": 1.0})
        with pytest.raises(ValueError, match="outside"):
            rerank_rrf(doc_list, psg_list, FusionParams())

    def test_set_preservation(self):
        doc_list, psg_list = self._lists()
        out = rerank_rrf(doc_list, psg_list, FusionParams(nu=30.0, alpha=0.3))
        assert sorted(out.ids()) == sorted(doc_list.ids())

    def test_equals_max_over_passages_bit_for_bit(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            docs = [f"d{i}" for i in range(12)]
            doc_list = RankedList.from_scores("q", {d: float(rng.normal()) for d in docs})
            pids = [f"{d}#{i}" for d in docs[:10] for i in range(int(rng.integers(1, 6)))]
            psg_list = RankedList.from_scores(
                "q", {p: float(rng.integers(0, 8)) for p in pids}, k=int(rng.integers(5, 40))
            )
            for nu, alpha in ((0.0, 0.5), (60.0, 0.3), (0.0, 0.0), (90.0, 0.9)):
                out = rerank_rrf(doc_list, psg_list, FusionParams(nu=nu, alpha=alpha))
                assert dict(out.entries) == row_references.rrf_scores(
                    doc_list, psg_list, nu, alpha
                )


def _smpd_stats(passage_ids, psg_list, nu):
    """The 7 statistics build_smpd_vectors appends to the row of a document
    whose passages are ``passage_ids``."""
    by_doc = {"d": [SimpleNamespace(passage_id=p) for p in passage_ids]}
    docs = FeatureMatrix(DOC_SCHEMA, "q", ["d"], np.zeros((1, len(DOC_SCHEMA))))
    row = build_smpd_vectors(docs, PassageRanks(by_doc, psg_list), nu).values[0]
    return tuple(row[len(DOC_SCHEMA):].tolist())


class TestSmpdFeatures:
    def test_single_passage_top_rank(self):
        psg_list = RankedList.from_scores(
            "q", {f"x#{i}": float(200 - i) for i in range(200)} | {"d#0": 999.0}
        )
        stats = _smpd_stats(["d#0"], psg_list, nu=0.0)
        assert stats == (1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_top50_top100_fractions(self):
        scores = {f"x#{i}": float(300 - i) for i in range(200)}
        psg_list = RankedList.from_scores("q", scores)
        ids = psg_list.ids()
        mine = [ids[9], ids[59]]  # ranks 10 and 60
        stats = _smpd_stats(mine, psg_list, nu=60.0)
        assert stats[4] == pytest.approx(0.5)
        assert stats[5] == pytest.approx(1.0)
        assert stats[6] == 2.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(14)
        scores = {f"d{i // 3}#{i % 3}": float(rng.uniform(0, 10)) for i in range(60)}
        psg_list = RankedList.from_scores("q", scores)
        ranks = psg_list.ranks()
        nu = 30.0
        for doc in {p.rsplit("#", 1)[0] for p in scores}:
            mine = sorted(p for p in scores if p.rsplit("#", 1)[0] == doc)
            got = _smpd_stats(mine, psg_list, nu)
            rr = [1.0 / (nu + ranks[p]) for p in mine]
            mean = sum(rr) / len(rr)
            expected = (
                max(rr),
                min(rr),
                mean,
                math.sqrt(sum((x - mean) ** 2 for x in rr) / len(rr)),
                sum(1 for p in mine if ranks[p] <= 50) / len(mine),
                sum(1 for p in mine if ranks[p] <= 100) / len(mine),
                float(len(mine)),
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_missing_passage_counts_zero(self):
        psg_list = RankedList.from_scores("q", {"d#0": 1.0})
        stats = _smpd_stats(["d#0", "d#1"], psg_list, nu=0.0)
        assert stats[1] == 0.0  # min includes the unranked passage
        assert stats[6] == 2.0


def _passages_for(doc_id, n):
    from psgrank.passage import Passage

    return [
        Passage(f"{doc_id}#{i}", doc_id, i, (i * 5, i * 5 + 5), (i * 30, i * 30 + 29))
        for i in range(n)
    ]


class TestSelectPassage:
    """The reference selection that the PassageRanks picks are checked against."""

    def test_fallback_when_fewer_than_requested(self):
        passages = _passages_for("d", 1)
        psg_list = RankedList.from_scores("q", {"d#0": 1.0})
        assert row_references.select_passage(passages, psg_list, "third") is passages[0]

    def test_best_by_global_rank(self):
        passages = _passages_for("d", 3)
        psg_list = RankedList.from_scores(
            "q", {"d#0": 5.0, "d#1": 2.0, "d#2": 8.0, "x#0": 9.0, "x#1": 6.0}
        )
        assert row_references.select_passage(passages, psg_list, "best") is passages[2]
        assert row_references.select_passage(passages, psg_list, "second") is passages[0]
        assert row_references.select_passage(passages, psg_list, "lowest") is passages[1]

    def test_selection_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        passages = _passages_for("d", 6)
        scores = {p.passage_id: float(rng.uniform(0, 1)) for p in passages}
        scores |= {f"z#{i}": float(rng.uniform(0, 1)) for i in range(10)}
        psg_list = RankedList.from_scores("q", scores)
        ranks = psg_list.ranks()
        by_rank = sorted(passages, key=lambda p: ranks[p.passage_id])
        assert row_references.select_passage(passages, psg_list, "best") is by_rank[0]
        assert row_references.select_passage(passages, psg_list, "second") is by_rank[1]
        assert row_references.select_passage(passages, psg_list, "third") is by_rank[2]
        assert row_references.select_passage(passages, psg_list, "lowest") is by_rank[-1]
        best = row_references.select_passage(passages, psg_list, "best")
        assert all(
            ranks[best.passage_id] <= ranks[p.passage_id] for p in passages
        )

    def test_none_when_no_passage_ranked(self):
        passages = _passages_for("d", 2)
        psg_list = RankedList.from_scores("q", {"z#0": 1.0})
        assert row_references.select_passage(passages, psg_list, "best") is None


def _matrix(table: tuple) -> FeatureMatrix:
    """One query's matrix from a (schema, {item_id: values}) table."""
    schema, values = table
    return FeatureMatrix(schema, "q", list(values), list(values.values()))


def _row(matrix: FeatureMatrix, item_id: str) -> dict[str, float]:
    """One row of a matrix as feature name -> value."""
    return dict(zip(matrix.schema.features, matrix.values[matrix.rows([item_id])[0]].tolist()))


def _ablated(table: tuple, drop: set) -> tuple:
    """A (schema, {item_id: values}) table without the features in ``drop``."""
    schema, rows = table
    keep = [i for i, f in enumerate(schema.features) if f not in drop]
    return schema.without(drop), {k: tuple(v[i] for i in keep) for k, v in rows.items()}


def _joint_fixture():
    """Doc and passage feature tables and rankings for 3 docs x 2 passages."""
    rng = np.random.default_rng(7)
    doc_ids = ["d1", "d2", "d3"]
    doc_list = RankedList.from_scores("q", {d: float(10 - i) for i, d in enumerate(doc_ids)})
    passages_by_doc = {d: _passages_for(d, 2) for d in doc_ids}
    doc_vectors = (DOC_SCHEMA, {d: tuple(rng.uniform(size=6)) for d in doc_ids})
    psg_vectors = (PSG_SCHEMA, {})
    for d in doc_ids:
        for p in passages_by_doc[d]:
            psg_vectors[1][p.passage_id] = tuple(rng.uniform(size=20))
    psg_scores = {pid: float(rng.uniform(0, 1)) for pid in psg_vectors[1]}
    psg_list = RankedList.from_scores("q", psg_scores)
    return doc_list, passages_by_doc, doc_vectors, psg_vectors, psg_list


class TestJpds:
    def test_schema_arity(self):
        assert len(jpds_schema()) == 24
        # Features ablated upstream leave the joint schema, exclusions or not.
        reduced = PSG_SCHEMA.without({"QueryLength", "W2V"})
        assert len(jpds_schema(DOC_SCHEMA.without({"SW1"}), reduced)) == 22
        assert len(jpds_schema(psg_schema=reduced, two_passages=True)) == 23 + 14

    @pytest.mark.parametrize("two_passages", [False, True])
    def test_layout_equals_per_call_derivation(self, two_passages):
        # Equal but distinct schemas share one cached layout.
        schemas = [
            (DOC_SCHEMA, PSG_SCHEMA),
            (DOC_SCHEMA.without({"SW1"}), PSG_SCHEMA.without({"QueryLength", "W2V"})),
            (DOC_SCHEMA, PSG_SCHEMA.without({"DocQuerySim", "ESA"})),
        ]
        for doc_schema, psg_schema in schemas + [
            (FeatureSchema(d.name, d.features), FeatureSchema(p.name, p.features))
            for d, p in schemas
        ]:
            schema, *columns = _jpds_layout(doc_schema, psg_schema, two_passages)
            expected = jpds_schema(doc_schema, psg_schema, two_passages)
            assert schema == expected
            assert [list(c) for c in columns] == [
                _source_columns(expected, prefix, psg_schema)
                for prefix in ("p.", "p2.")[: 1 + two_passages]
            ]
            assert _jpds_layout(doc_schema, psg_schema, two_passages)[0] is schema

    @pytest.mark.parametrize("two_passages", [False, True])
    def test_builder_equals_per_row_reference_across_schemas(self, two_passages):
        # Schema pairs alternate, so each call reads another pair's layout.
        _, passages_by_doc, doc_vectors, psg_vectors, psg_list = _joint_fixture()
        table = PassageRanks(passages_by_doc, psg_list)
        ablations = [(set(), set()), ({"SW1"}, {"QueryLength", "W2V"}), (set(), {"ESA"})]
        for doc_drop, psg_drop in ablations * 2:
            docs, psgs = _ablated(doc_vectors, doc_drop), _ablated(psg_vectors, psg_drop)
            for which in ("best", "lowest"):
                joint = build_jpds_vectors(_matrix(docs), _matrix(psgs), table, which, two_passages)
                assert row_references.rows_of(joint) == row_references.jpds_rows(
                    list(docs[1]), docs, psgs, passages_by_doc, psg_list, which, two_passages
                )

    def test_vector_contents_match_manual_concat(self):
        _, passages_by_doc, doc_vectors, psg_vectors, psg_list = _joint_fixture()
        joint = build_jpds_vectors(
            _matrix(doc_vectors), _matrix(psg_vectors), PassageRanks(passages_by_doc, psg_list),
            which="best",
        )
        ranks = psg_list.ranks()
        assert joint.schema == jpds_schema() and joint.values.shape == (3, 24)
        for doc_id, values in zip(joint.item_ids, joint.values.tolist()):
            best = min(passages_by_doc[doc_id], key=lambda p: ranks[p.passage_id])
            expected = list(doc_vectors[1][doc_id])
            psg = psg_vectors[1][best.passage_id]
            for name, value in zip(PSG_SCHEMA.features, psg):
                if name not in ("DocQuerySim", "QueryLength"):
                    expected.append(value)
            assert values == pytest.approx(expected)

    def test_jpd2_appends_reduced_second_passage(self):
        _, passages_by_doc, doc_vectors, psg_vectors, psg_list = _joint_fixture()
        joint = build_jpds_vectors(
            _matrix(doc_vectors), _matrix(psg_vectors), PassageRanks(passages_by_doc, psg_list),
            which="best", two_passages=True,
        )
        # 6 + 18 + 15: second passage drops the five redundant features.
        assert joint.values.shape == (3, 39)
        assert joint.schema == jpds_schema(two_passages=True)

    def test_fallback_when_no_passage_ranked(self):
        # A document whose passages all miss the ranking falls back to its
        # best passage by the similarity feature.
        passages_by_doc = {"d1": _passages_for("d1", 2), "d2": _passages_for("d2", 1)}
        rng = np.random.default_rng(5)
        doc_vectors = (DOC_SCHEMA, {d: tuple(rng.uniform(size=6)) for d in ("d1", "d2")})
        sim_idx = PSG_SCHEMA.index_of("PsgQuerySim")
        psg_vectors = (PSG_SCHEMA, {})
        for pid, sim in (("d1#0", 0.2), ("d1#1", 0.9), ("d2#0", 0.5)):
            values = list(rng.uniform(size=20))
            values[sim_idx] = sim
            psg_vectors[1][pid] = tuple(values)
        psg_list = RankedList.from_scores("q", {"d2#0": 1.0})  # d1 unranked
        joint = build_jpds_vectors(
            _matrix(doc_vectors), _matrix(psg_vectors), PassageRanks(passages_by_doc, psg_list),
            which="best",
        )
        # d1#1 has the higher similarity, so its row is appended.
        expected_tail = [
            v
            for name, v in zip(PSG_SCHEMA.features, psg_vectors[1]["d1#1"])
            if name not in ("DocQuerySim", "QueryLength")
        ]
        assert list(_row(joint, "d1").values())[6:] == pytest.approx(expected_tail)

    def test_fallback_with_reduced_schema(self):
        # Ablating PsgQuerySim leaves no similarity to fall back on; the
        # document's first passage is used, deterministically.
        reduced = PSG_SCHEMA.without({"PsgQuerySim"})
        passages_by_doc = {"d1": _passages_for("d1", 2)}
        rng = np.random.default_rng(6)
        doc_vectors = (DOC_SCHEMA, {"d1": tuple(rng.uniform(size=6))})
        psg_vectors = (reduced, {pid: tuple(rng.uniform(size=19)) for pid in ("d1#0", "d1#1")})
        psg_list = RankedList.from_scores("q", {"other#0": 1.0})
        joint = build_jpds_vectors(
            _matrix(doc_vectors), _matrix(psg_vectors), PassageRanks(passages_by_doc, psg_list),
            which="best",
        )
        expected_tail = [
            v
            for name, v in zip(reduced.features, psg_vectors[1]["d1#0"])
            if name not in ("DocQuerySim", "QueryLength")
        ]
        assert joint.values[0, 6:].tolist() == pytest.approx(expected_tail)

    def test_jpd2_single_passage_falls_back_to_same(self):
        passages_by_doc = {"d1": _passages_for("d1", 1)}
        rng = np.random.default_rng(0)
        doc_vectors = (DOC_SCHEMA, {"d1": tuple(rng.uniform(size=6))})
        psg_vectors = (PSG_SCHEMA, {"d1#0": tuple(rng.uniform(size=20))})
        psg_list = RankedList.from_scores("q", {"d1#0": 1.0})
        joint = build_jpds_vectors(
            _matrix(doc_vectors), _matrix(psg_vectors), PassageRanks(passages_by_doc, psg_list),
            which="best", two_passages=True,
        )
        reduced = [
            v
            for name, v in zip(PSG_SCHEMA.features, psg_vectors[1]["d1#0"])
            if name not in ("DocQuerySim", "MaxPDSim", "AvgPDSim", "StdPDSim", "QueryLength")
        ]
        assert joint.values[0, -15:].tolist() == pytest.approx(reduced)


class TestJpdm:
    def test_single_passage_all_aggregates_equal(self):
        passages_by_doc = {"d1": _passages_for("d1", 1)}
        rng = np.random.default_rng(1)
        doc_vectors = (DOC_SCHEMA, {"d1": tuple(rng.uniform(size=6))})
        psg_vectors = (PSG_SCHEMA, {"d1#0": tuple(rng.uniform(size=20))})
        outs = {
            agg: build_jpdm_vectors(_matrix(doc_vectors), _matrix(psg_vectors), passages_by_doc, agg)
            for agg in ("avg", "max", "min")
        }
        assert outs["avg"].values[0, 6:].tolist() == pytest.approx(
            outs["max"].values[0, 6:].tolist()
        )
        # min keeps PsgQuerySim, so compare the shared suffix feature-wise.
        avg, low = _row(outs["avg"], "d1"), _row(outs["min"], "d1")
        for name in outs["avg"].schema.features[6:]:
            bare = name.split(".", 1)[1]
            assert avg[name] == pytest.approx(low[f"min.{bare}"])

    def test_two_passage_aggregates(self):
        passages_by_doc = {"d1": _passages_for("d1", 2)}
        doc_vectors = (DOC_SCHEMA, {"d1": (0.0,) * 6})
        psg_vectors = (PSG_SCHEMA, {"d1#0": (0.2,) * 20, "d1#1": (0.8,) * 20})
        for agg, expected in (("avg", 0.5), ("max", 0.8), ("min", 0.2)):
            joint = build_jpdm_vectors(
                _matrix(doc_vectors), _matrix(psg_vectors), passages_by_doc, agg
            )
            assert all(v == pytest.approx(expected) for v in joint.values[0, 6:].tolist())

    def test_aggregates_match_brute_force_and_ordering(self):
        doc_list, passages_by_doc, doc_vectors, psg_vectors, _ = _joint_fixture()
        outs = {
            agg: build_jpdm_vectors(_matrix(doc_vectors), _matrix(psg_vectors), passages_by_doc, agg)
            for agg in ("avg", "max", "min")
        }
        for doc_id, _ in doc_list:
            mat = np.array([psg_vectors[1][p.passage_id] for p in passages_by_doc[doc_id]])
            for agg, fn in (("avg", np.mean), ("max", np.max), ("min", np.min)):
                row = _row(outs[agg], doc_id)
                for name in outs[agg].schema.features[6:]:
                    bare = name.split(".", 1)[1]
                    col = PSG_SCHEMA.index_of(bare)
                    assert row[name] == pytest.approx(float(fn(mat[:, col])))
        # Feature-wise max >= avg >= min on the shared features.
        for doc_id, _ in doc_list:
            rows = {agg: _row(outs[agg], doc_id) for agg in outs}
            for name in outs["avg"].schema.features[6:]:
                bare = name.split(".", 1)[1]
                vmax = rows["max"][f"max.{bare}"]
                vavg = rows["avg"][f"avg.{bare}"]
                vmin = rows["min"][f"min.{bare}"]
                assert vmax >= vavg - 1e-12
                assert vavg >= vmin - 1e-12


class TestSmpdVectors:
    def test_schema_and_values(self):
        _, passages_by_doc, doc_vectors, psg_vectors, psg_list = _joint_fixture()
        joint = build_smpd_vectors(
            _matrix(doc_vectors), PassageRanks(passages_by_doc, psg_list), nu=30.0
        )
        assert joint.schema == SMPD_SCHEMA
        assert len(SMPD_SCHEMA) == 13
        assert joint.item_ids == tuple(doc_vectors[1])
        for doc_id, values in zip(joint.item_ids, joint.values.tolist()):
            assert values[:6] == list(doc_vectors[1][doc_id])
            stats = row_references.smpd_features(
                [p.passage_id for p in passages_by_doc[doc_id]], psg_list, 30.0
            )
            assert tuple(values[6:]) == stats


class TestSmpdEqualsRowReference:
    """build_smpd_vectors reads the PassageRanks table one passage position
    at a time; its rows equal row_references.smpd_rows, one document at a
    time over smpd_features, bit for bit."""

    @staticmethod
    def _assert_equal(docs, by_doc, psg_list, nu):
        got = build_smpd_vectors(_matrix(docs), PassageRanks(by_doc, psg_list), nu)
        assert row_references.rows_of(got) == row_references.smpd_rows(
            list(docs[1]), docs, by_doc, psg_list, nu
        )

    @pytest.mark.parametrize("nu", [0.0, 100.0])
    def test_hand_built(self, nu):
        # One-passage documents ranked and unranked, and a 12-passage document
        # ranked at the top, past 50, past 100 and not at all; 150 passages of
        # other documents fill the ranks between them.
        by_doc = {"d3": _passages_for("d3", 12), "d1": _passages_for("d1", 1)}
        by_doc["d2"] = _passages_for("d2", 1)
        order = ["d1#0", "d3#4"] + [f"x#{i}" for i in range(60)] + ["d3#0", "d3#7"]
        order += [f"x#{i}" for i in range(60, 150)] + ["d3#11", "d3#2"]
        psg_list = RankedList.from_scores("q", {p: float(-i) for i, p in enumerate(order)})
        docs = (DOC_SCHEMA, {d: tuple(float(i) for i in range(6)) for d in by_doc})
        self._assert_equal(docs, by_doc, psg_list, nu)
        stats = dict(zip(SMPD_SCHEMA.features, build_smpd_vectors(
            _matrix(docs), PassageRanks(by_doc, psg_list), nu
        ).values[0].tolist()))
        assert stats["p.numPsg"] == 12.0 and stats["p.min"] == 0.0
        assert stats["p.top50"] == 1 / 12 and stats["p.top100"] == 3 / 12
        # A truncated ranking leaves d1 ranked and every other passage out.
        self._assert_equal(docs, by_doc, row_references.truncated(psg_list, 1), nu)

    @pytest.mark.parametrize("nu", [0.0, 30.0, 100.0])
    def test_random_rankings(self, nu):
        rng = np.random.default_rng([44, int(nu)])
        seen = Counter()
        for n_docs, most in ((1, 1), (1, 12), (12, 12), (40, 5), (40, 12)):
            doc_ids = [f"d{i:02d}" for i in rng.permutation(n_docs)]
            by_doc = {d: _passages_for(d, int(rng.integers(1, most + 1))) for d in doc_ids}
            pids = [p.passage_id for d in doc_ids for p in by_doc[d]]
            pids += [f"x#{i}" for i in range(int(rng.integers(0, 150)))]
            # Integer-valued scores tie, so ties break by passage id.
            scores = {p: float(rng.integers(0, 20)) for p in pids if rng.random() < 0.8}
            psg_list = RankedList.from_scores("q", scores)
            docs = (DOC_SCHEMA, {d: tuple(rng.uniform(size=6).tolist()) for d in doc_ids})
            for k in (len(psg_list), 5, 0):
                self._assert_equal(docs, by_doc, row_references.truncated(psg_list, k), nu)
            seen["12 passages"] += any(len(v) == 12 for v in by_doc.values())
            seen["1 passage"] += any(len(v) == 1 for v in by_doc.values())
            seen["past 100"] += len(psg_list) > 100
        assert all(seen.values()) and len(seen) == 3, seen

    @pytest.mark.parametrize("nu", [0.0, 30.0, 1e300, 1.7e308])
    def test_deep_shape_bytes(self, nu):
        # deep's shape: 166 documents of 3 passages, ranks up to 5,000, so at
        # nu = 0 the scores' exponents differ by more than 10 bits; 1.7e308
        # makes them subnormal, over a scale of more than 1,000 bits. Ten
        # 3-passage and three 1-passage documents are unranked, three
        # 1-passage documents ranked, and 30 documents have a third passage
        # unranked, so that the deviation is not 0 at any nu.
        rng = np.random.default_rng(45)
        doc_ids = [f"d{i:03d}" for i in rng.permutation(172)]
        by_doc = {d: _passages_for(d, 3 if j < 166 else 1) for j, d in enumerate(doc_ids)}
        unranked = {p.passage_id for d in doc_ids[:10] + doc_ids[166:169] for p in by_doc[d]}
        unranked |= {f"{d}#2" for d in doc_ids[10:40]}
        ranked = [p.passage_id for d in doc_ids for p in by_doc[d] if p.passage_id not in unranked]
        pids = ranked + [f"x#{i}" for i in range(5000 - len(ranked))]
        psg_list = RankedList.from_scores(
            "q", dict(zip(pids, rng.permutation(len(pids)).astype(float).tolist()))
        )
        docs = (DOC_SCHEMA, {d: tuple(rng.uniform(size=6).tolist()) for d in doc_ids})
        got = build_smpd_vectors(_matrix(docs), PassageRanks(by_doc, psg_list), nu)
        schema, rows = row_references.smpd_rows(list(docs[1]), docs, by_doc, psg_list, nu)
        assert got.schema == schema and list(got.item_ids) == [i for i, _ in rows]
        assert got.values.tobytes() == np.array([v for _, v in rows]).tobytes()

        ranks = [psg_list.ranks()[p] for p in ranked]
        assert max(ranks) > 4900 and min(ranks) < 100
        denominators = [(1.0 / (nu + r)).as_integer_ratio()[1].bit_length() for r in ranks]
        if nu == 0.0:
            assert max(denominators) - min(denominators) > 10
        if nu == 1.7e308:
            assert max(denominators) > 1000 and 1.0 / (nu + 1) < sys.float_info.min
        std = got.values[:, SMPD_SCHEMA.features.index("p.std")]
        assert (std > 0).sum() >= (30 if nu > 1e299 else 100) and (std == 0).sum() >= 16

    def test_empty_document_list(self):
        empty = (DOC_SCHEMA, {})
        by_doc = {"d1": _passages_for("d1", 2)}
        psg_list = RankedList.from_scores("q", {"d1#1": 1.0})
        self._assert_equal(empty, by_doc, psg_list, 30.0)
        out = build_smpd_vectors(_matrix(empty), PassageRanks(by_doc, psg_list), 30.0)
        assert len(out) == 0 and out.schema == SMPD_SCHEMA

    def test_document_without_passages_raises(self):
        docs = (DOC_SCHEMA, {"d1": (0.0,) * 6, "d2": (1.0,) * 6})
        by_doc = {"d1": _passages_for("d1", 2), "d2": []}
        psg_list = RankedList.from_scores("q", {"d1#1": 1.0})
        with pytest.raises(ValueError, match="document has no passages"):
            build_smpd_vectors(_matrix(docs), PassageRanks(by_doc, psg_list), 30.0)
        with pytest.raises(ValueError, match="document has no passages"):
            row_references.smpd_rows(list(docs[1]), docs, by_doc, psg_list, 30.0)


def _padded(lists):
    """Float lists as a zero-padded table and the mask of its entries."""
    width = max(len(v) for v in lists)
    table, inside = np.zeros((len(lists), width)), np.zeros((len(lists), width), dtype=bool)
    for i, values in enumerate(lists):
        table[i, : len(values)], inside[i, : len(values)] = values, True
    return table, inside


class TestSmpdDeviation:
    """SMPD's std column comes from one double-double pass per call, and the
    exact integer step (``_sqrt_ratio``) runs only for the documents that
    pass cannot decide. Either way each value is the correctly rounded root
    of the exact variance: pstdev's, and statistics.pstdev's on 3.11+."""

    @staticmethod
    def _exact_steps(monkeypatch) -> list:
        calls = []
        exact = rank_module._sqrt_ratio

        def counting(num, den):
            calls.append((num, den))
            return exact(num, den)

        monkeypatch.setattr(rank_module, "_sqrt_ratio", counting)
        return calls

    @staticmethod
    def _expected(lists) -> np.ndarray:
        want = np.array([pstdev(v) for v in lists])
        if sys.version_info >= (3, 11):
            import statistics

            assert want.tobytes() == np.array([statistics.pstdev(v) for v in lists]).tobytes()
        return want

    @pytest.mark.parametrize("nu", [0.0, 30.0, 1e6, 2.0**52])
    def test_random_tables(self, nu, monkeypatch):
        # 40 documents each of 1, 2, 3, 8 and 40 passages; a quarter of the
        # passages and every passage of ten documents unranked; 3,000 passages
        # of other documents fill the ranks between them.
        rng = np.random.default_rng([46, int(nu) % 1000])
        sizes = [1, 2, 3, 8, 40] * 40
        doc_ids = [f"d{i:03d}" for i in rng.permutation(len(sizes))]
        by_doc = {d: _passages_for(d, m) for d, m in zip(doc_ids, sizes)}
        pids = [p.passage_id for d in doc_ids for p in by_doc[d]]
        dropped = {p for p in pids if rng.random() < 0.25}
        dropped |= {p.passage_id for d in doc_ids[:10] for p in by_doc[d]}
        ranked = [p for p in pids if p not in dropped] + [f"x#{i}" for i in range(3000)]
        psg_list = RankedList.from_scores(
            "q", dict(zip(ranked, rng.permutation(len(ranked)).astype(float).tolist()))
        )
        docs = (DOC_SCHEMA, {d: tuple(rng.uniform(size=6).tolist()) for d in doc_ids})
        calls = self._exact_steps(monkeypatch)
        got = build_smpd_vectors(_matrix(docs), PassageRanks(by_doc, psg_list), nu)
        _, rows = row_references.smpd_rows(list(docs[1]), docs, by_doc, psg_list, nu)
        assert got.values.tobytes() == np.array([v for _, v in rows]).tobytes()

        ranks = psg_list.ranks()
        lists = [
            [1.0 / (nu + ranks[p.passage_id]) if p.passage_id in ranks else 0.0 for p in by_doc[d]]
            for d in got.item_ids
        ]
        std = got.values[:, SMPD_SCHEMA.features.index("p.std")]
        assert std.tobytes() == self._expected(lists).tobytes()
        spread = [v for v in lists if max(v) > min(v)]
        ranked_in_full = [v for v in spread if min(v) > 0]
        assert sum(max(v) == min(v) == 0 for v in lists) >= 10
        assert sum(max(v) == min(v) > 0 for v in lists) >= 20
        if nu < 2**52:
            assert len(calls) <= len(spread) // 20, (len(calls), len(spread))
        else:
            # A spread tiny next to the mean leaves the float pass no bits.
            assert len(calls) >= len(ranked_in_full) > 0

    def test_undecidable_rows_take_the_exact_step(self, monkeypatch):
        rows = [
            # (1 - 2**-54)/2 lies halfway between 0.5 - 2**-54 and 0.5.
            [1.0, 2.0**-54],
            # 2**-103 from that midpoint (2**-50 ulp), below it and above it.
            [1.0, 2.0**-54 + 2.0**-102],
            [1.0, 2.0**-54 - 2.0**-102],
        ]
        # (a - 2**-53)/2 is a midpoint for a in (1, 2); b moves it by 2**-102,
        # and a power-of-two scale moves the pair with it.
        for j, scale in ((1, 1.0), (3, 2.0**-10), (2**51 + 5, 2.0**-700), (12345, 2.0**30)):
            a = 1.0 + j * 2.0**-52
            for b in (2.0**-53 + 2.0**-101, 2.0**-53 - 2.0**-101):
                rows.append([a * scale, b * scale])
        # Spreads of a few ulp on means of 1, 0.1 and 2**-52.
        rows += [[1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51], [0.1, math.nextafter(0.1, 1.0)]]
        rows.append([1.0 / (2.0**52 + r) for r in (1, 2, 3, 40)])
        calls = self._exact_steps(monkeypatch)
        got = rank_module._pstdevs(*_padded(rows))
        assert len(calls) == len(rows)
        assert got.tobytes() == self._expected(rows).tobytes()
        assert got[:3].tolist() == [0.5, 0.5 - 2.0**-54, 0.5]

    def test_lists_the_float_pass_decides(self, monkeypatch):
        # pstdev's lists (negative values, magnitudes 1e-5 to 1e3, repeats)
        # and rows whose scores are all equal, which give 0.0 directly.
        lists = TestPstdev._lists(20_000, 47)
        lists += [[0.1] * 3, [0.25], [0.0, 0.0], [1.0 / 3] * 40]
        calls = self._exact_steps(monkeypatch)
        got = rank_module._pstdevs(*_padded(lists))
        assert got.tobytes() == self._expected(lists).tobytes()
        assert got[-4:].tolist() == [0.0] * 4
        assert 0 < len(calls) <= len(lists) // 20


class TestFpd:
    def test_alpha_one_preserves_doc_order(self):
        doc_list = RankedList.from_scores("q", {"d1": 3.0, "d2": 2.0, "d3": 1.0})
        model_ranking = RankedList.from_scores("q", {"d3": 9.0, "d1": 5.0, "d2": 1.0})
        out = rerank_fpd(doc_list, model_ranking, FusionParams(nu=60.0, alpha=1.0))
        assert out.ids() == doc_list.ids()

    def test_hand_fusion(self):
        doc_list = RankedList.from_scores("q", {"d1": 3.0, "d2": 2.0, "d3": 1.0})
        model_ranking = RankedList.from_scores("q", {"d3": 9.0, "d1": 5.0, "d2": 1.0})
        out = rerank_fpd(doc_list, model_ranking, FusionParams(nu=10.0, alpha=0.4))
        expected = {
            "d1": 0.4 / 11 + 0.6 / 12,
            "d2": 0.4 / 12 + 0.6 / 13,
            "d3": 0.4 / 13 + 0.6 / 11,
        }
        for doc_id, got_score in out.entries:
            assert got_score == pytest.approx(expected[doc_id], rel=1e-12)

    def test_identity_model_alpha_zero_orders_by_similarity(self, store_factory, tokenizer):
        # A model with weight only on the passage-query similarity, fused
        # at alpha=0, must reproduce the best-passage-similarity order.
        texts = {
            "d1": "cat cat cat dog filler words here",
            "d2": "bird bird cat filler other words too",
            "d3": "dog dog dog cat cat filler words",
        }
        store = store_factory(texts)
        index = build_index(store)
        seg = SegmentationParams(window_len=4)
        passages_by_doc = {d: segment(store.get(d), seg) for d in texts}
        query = make_query("q", "cat dog", tokenizer)
        extractor = PassageFeatureExtractor(
            query, store, index, sorted(texts), passages_by_doc,
            SemanticResources(), LmParams(10.0),
        )
        psg_vectors = extractor.matrix()
        doc_list = RankedList.from_scores("q", {"d1": 3.0, "d2": 2.0, "d3": 1.0})
        weights = tuple(
            1.0 if f == "PsgQuerySim" else 0.0 for f in PSG_SCHEMA.features
        )
        model = LinearModel(PSG_SCHEMA, weights, "pairwise_hinge")
        best = [
            max(passages_by_doc[d], key=lambda p: extractor.psg_sims[p.passage_id]).passage_id
            for d in sorted(texts)
        ]
        gmax = FeatureMatrix(PSG_SCHEMA, "q", sorted(texts), psg_vectors.take(best).values)
        model_ranking = score(model, gmax)
        out = rerank_fpd(doc_list, model_ranking, FusionParams(nu=0.0, alpha=0.0))
        best_sim = {
            d: max(extractor.psg_sims[p.passage_id] for p in passages_by_doc[d])
            for d in texts
        }
        expected_order = sorted(best_sim, key=lambda d: (-best_sim[d], d))
        assert out.ids() == expected_order


def _scored_corpus(store_factory, tokenizer):
    texts = {
        "d1": "cat dog runs cat fast dog path stone",
        "d2": "bird cat sits cat tree bird nest twig",
        "d3": "dog dog barks loud dog yard gate lawn",
        "d4": "fish swims deep lake cold fish fin weed",
    }
    store = store_factory(texts)
    index = build_index(store)
    seg = SegmentationParams(window_len=4)
    passages_by_doc = {d: segment(store.get(d), seg) for d in texts}
    query = make_query("q", "cat dog", tokenizer)
    return store, index, passages_by_doc, query


class TestQsf:
    def test_lambda_zero_pure_passage_order(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        out = qsf_ranking(
            query, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), lam=0.0,
        )
        stems = {d.doc_id: d.stems() for d in store.documents}
        sims = {}
        for d, plist in passages_by_doc.items():
            for p in plist:
                s = stems[d][p.token_range[0] : p.token_range[1]]
                sims[p.passage_id] = oracles.lm_similarity(
                    query.stems(), Counter(s), len(s), stems, 20.0
                )
        expected = sorted(sims, key=lambda p: (-sims[p], p))
        assert out.ids() == expected

    def test_lambda_one_orders_by_ambient_document(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        out = qsf_ranking(
            query, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), lam=1.0,
        )
        stems = {d.doc_id: d.stems() for d in store.documents}
        doc_sims = {d: oracles.doc_lm_similarity(query.stems(), d, stems, 20.0) for d in stems}
        expected = sorted(
            (p.passage_id for plist in passages_by_doc.values() for p in plist),
            key=lambda pid: (-doc_sims[pid.rsplit("#", 1)[0]], pid),
        )
        assert out.ids() == expected

    def test_direct_formula_oracle(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        lam = 0.4
        out = qsf_ranking(
            query, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), lam=lam,
        )
        stems = {d.doc_id: d.stems() for d in store.documents}
        psg_sims, doc_sims = {}, {}
        for d, plist in passages_by_doc.items():
            doc_sims[d] = oracles.doc_lm_similarity(query.stems(), d, stems, 20.0)
            for p in plist:
                s = stems[d][p.token_range[0] : p.token_range[1]]
                psg_sims[p.passage_id] = oracles.lm_similarity(
                    query.stems(), Counter(s), len(s), stems, 20.0
                )
        sum_p, sum_d = sum(psg_sims.values()), sum(doc_sims.values())
        for pid, got_score in out.entries:
            expected = (1 - lam) * psg_sims[pid] / sum_p + lam * doc_sims[
                pid.rsplit("#", 1)[0]
            ] / sum_d
            assert got_score == pytest.approx(expected, rel=1e-9)


class TestPlm:
    def test_single_token_passage_imax_zero(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat"})
        index = build_index(store)
        passages = segment(store.get("d1"), SegmentationParams(window_len=300))
        query = make_query("q", "cat", tokenizer)
        scores = positional_similarities(
            query, store, index, passages[0], LmParams(10.0), sigma=50.0
        )
        assert scores.shape == (1,)
        assert int(np.argmax(scores)) == 0

    def test_flat_kernel_matches_whole_passage(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        from row_references import lm_similarity, passage_term_counts

        for d, plist in passages_by_doc.items():
            for p in plist:
                pos = positional_similarities(
                    query, store, index, p, LmParams(20.0), sigma=1e6
                )
                whole = lm_similarity(
                    query.stems(),
                    passage_term_counts(store.get(d), p),
                    p.length,
                    index,
                    LmParams(20.0),
                )
                if pos.size:
                    assert float(pos.max()) == pytest.approx(whole, abs=1e-6)

    def test_term_id_positions_equal_stem_scan(self, store_factory, tokenizer):
        from psgrank.passage import Passage

        store, index, _, query = _scored_corpus(store_factory, tokenizer)
        repeated = make_query("r", "dog cat dog zebu", tokenizer)
        for window_len in (1, 3, 7, 300):
            seg = SegmentationParams(window_len=window_len)
            passages = [p for d in store.doc_ids() for p in segment(store.get(d), seg)]
            passages.append(Passage("d1#9", "d1", 9, (2, 2), (0, 0)))  # empty
            for p in passages:
                for q in (query, repeated):
                    for sigma in (0.5, 2.0, 50.0, 1e6):
                        args = (q, store, index, p, LmParams(20.0), sigma)
                        got = positional_similarities(*args)
                        want = row_references.positional_similarities(*args)
                        assert got.shape == want.shape == (p.length,)
                        assert got.tobytes() == want.tobytes(), (p.passage_id, sigma)

    def test_brute_force_per_position_oracle(self, store_factory, tokenizer):
        store = store_factory({"d1": "cat dog bird cat fish dog cat owl bat dog"})
        index = build_index(store)
        passages = segment(store.get("d1"), SegmentationParams(window_len=300))
        query = make_query("q", "cat dog", tokenizer)
        mu, sigma = 15.0, 2.0
        got = positional_similarities(query, store, index, passages[0], LmParams(mu), sigma)
        stems = store.get("d1").stems()
        coll = {d.doc_id: d.stems() for d in store.documents}
        coll_counts, coll_len = oracles.collection_stats(coll)
        m = len(stems)
        for i in range(m):
            kern = [math.exp(-((i - j) ** 2) / (2 * sigma * sigma)) for j in range(m)]
            z = sum(kern)
            log_score = 0.0
            for t in query.stems():
                c = sum(k for j, k in enumerate(kern) if stems[j] == t)
                theta = (c + mu * coll_counts[t] / coll_len) / (z + mu)
                log_score += 0.5 * math.log(theta)
            assert got[i] == pytest.approx(math.exp(log_score), rel=1e-9)

    def test_lambda_beta_bound(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        with pytest.raises(ValueError):
            plm_ranking(
                query, store, index, sorted(passages_by_doc), passages_by_doc,
                LmParams(20.0), sigma=50.0, lam=0.7, beta=0.7,
            )

    def test_reduces_to_qsf_when_positional_term_dropped(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        beta = 0.6
        plm = plm_ranking(
            query, store, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), sigma=100.0, lam=0.0, beta=beta,
        )
        qsf = qsf_ranking(
            query, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), lam=1.0 - beta,
        )
        assert plm.ids() == qsf.ids()


# numpy's AVX-512 float64 exp and log may round differently from libm's
# in the last bit. numpy dispatches them under these names on x86-64.
_AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def plm_bytes() -> dict[str, str]:
    """Hex bytes of positional_similarities over a seeded 3-document corpus,
    per (passage, query, mu, sigma): passages of 0, 1, 3, 7 and whole-document
    lengths, queries with repeated and unknown terms."""
    rng = np.random.default_rng(26)
    words = ["cat", "dog", "owl", "bat", "elk", "yak"]
    texts = {
        f"d{i}": " ".join(words[j] for j in rng.integers(0, len(words), size=n))
        for i, n in enumerate((9, 40, 75))
    }
    tokenizer = Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))
    store = build_store(texts, tokenizer)
    index = build_index(store)
    queries = [
        make_query(qid, text, tokenizer)
        for qid, text in (("a", "cat dog"), ("b", "dog cat dog zebu"), ("c", "owl"))
    ]
    out = {}
    for window_len in (1, 3, 7, 300):
        passages = [p for d in texts for p in segment(store.get(d), SegmentationParams(window_len))]
        passages.append(Passage("d1#99", "d1", 99, (4, 4), (0, 0)))  # empty
        for p in passages:
            for q in queries:
                for mu in (0.0, 20.0, 1500.0):
                    for sigma in (0.5, 2.0, 7.3, 50.0, 1e6):
                        got = positional_similarities(q, store, index, p, LmParams(mu), sigma)
                        case = f"{window_len} {p.passage_id} {q.query_id} {mu} {sigma}"
                        out[case] = got.tobytes().hex()
    return out


class TestPlmBytesAcrossCpuFeatures:
    def test_bytes_equal_with_avx512_disabled(self):
        """A child process with numpy's AVX-512 paths disabled writes the
        default process's bytes; on a CPU without them it must still agree."""
        got = json_without_cpu_features(_AVX512_TARGETS, "test_rank", "plm_bytes")
        want = plm_bytes()
        assert got.keys() == want.keys()
        differ = [case for case in want if got[case] != want[case]]
        assert not differ, f"{len(differ)} of {len(want)} cases differ, first {differ[0]!r}"


class TestDocPsg:
    def test_equal_lengths_degenerate_to_lambda_max(self, store_factory, tokenizer):
        store, index, passages_by_doc, query = _scored_corpus(store_factory, tokenizer)
        lam_max = 0.7
        out = docpsg_ranking(
            query, index, sorted(passages_by_doc), passages_by_doc,
            LmParams(20.0), lambda_max=lam_max,
        )
        stems = {d.doc_id: d.stems() for d in store.documents}
        for doc_id, got_score in out.entries:
            doc_sim = oracles.doc_lm_similarity(query.stems(), doc_id, stems, 20.0)
            best = max(
                oracles.lm_similarity(
                    query.stems(),
                    Counter(stems[doc_id][p.token_range[0] : p.token_range[1]]),
                    p.length,
                    stems,
                    20.0,
                )
                for p in passages_by_doc[doc_id]
            )
            expected = lam_max * doc_sim + (1 - lam_max) * best
            assert got_score == pytest.approx(expected, rel=1e-9)

    def test_longer_docs_get_smaller_lambda(self, store_factory, tokenizer):
        texts = {
            "short": "cat dog",
            "mid": "cat dog " * 5,
            "long": "cat dog " * 30,
        }
        store = store_factory(texts)
        index = build_index(store)
        passages_by_doc = {
            d: segment(store.get(d), SegmentationParams(window_len=4)) for d in texts
        }
        query = make_query("q", "cat", tokenizer)
        # With identical similarity profiles, only lambda varies; compute the
        # implied lambda from the output scores.
        import math as _math

        out = docpsg_ranking(query, index, sorted(texts), passages_by_doc, LmParams(0.0), 0.9)
        log_lens = {d: _math.log1p(index.doc_lengths[d]) for d in texts}
        lo, hi = min(log_lens.values()), max(log_lens.values())
        lams = {d: 0.9 * (1 - (log_lens[d] - lo) / (hi - lo)) for d in texts}
        assert lams["long"] <= lams["mid"] <= lams["short"]
        assert set(out.ids()) == set(texts)


class TestTrecIO:
    def test_round_trip_preserves_order(self, tmp_path):
        runs = [
            RankedList.from_scores("q1", {"a": 0.1234567890123, "b": 0.1234567890122}),
            RankedList.from_scores("q2", {"c": 1.0}),
        ]
        path = tmp_path / "run.trec"
        write_trec_run(path, runs, tag="test")
        loaded = read_trec_run(path)
        assert [r.query_id for r in loaded] == ["q1", "q2"]
        assert loaded[0].entries == runs[0].entries
        first_line = path.read_text().splitlines()[0].split()
        assert first_line[1] == "Q0" and first_line[5] == "test"
        assert first_line[3] == "1"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 doc1 1 0.5\n")
        with pytest.raises(ValueError, match="6"):
            read_trec_run(path)

    def test_non_number_score_names_path_and_line(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 doc1 1 0.5 t\nq1 Q0 doc2 2 high t\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: score 'high' is not a number"):
            read_trec_run(path)

    @pytest.mark.parametrize(
        "rows,where,rule",
        [
            # Line 4 rises too; the first entry that breaks the rule is named.
            (
                ["q1 Q0 a 1 1.0 t", "q2 Q0 c 1 1.0 t", "q1 Q0 b 2 2.0 t", "q1 Q0 d 3 3.0 t"],
                "3: query q1", "ranked list scores must be non-increasing",
            ),
            (
                ["q1 Q0 a 1 2.0 t", "q2 Q0 c 1 2.0 t", "q1 Q0 b 2 1.0 t", "q2 Q0 c 2 1.0 t"],
                "4: query q2", "duplicate item id in ranked list: 'c'",
            ),
            (
                ["q1 Q0 b 1 1.0 t", "q1 Q0 a 2 1.0 t", "q2 Q0 c 1 1.0 t"],
                "2: query q1", "ties must be ordered by ascending item id",
            ),
        ],
        ids=["rising-score", "repeated-item", "tie-out-of-order"],
    )
    def test_broken_list_rule_names_path_line_and_query(self, tmp_path, rows, where, rule):
        path = tmp_path / "run.trec"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{where}: {rule}')}$"):
            read_trec_run(path)


class TestBuildersEqualRowReferences:
    """The matrix builders equal the per-row builders they replaced, bit for bit."""

    @staticmethod
    def _assert_builders_equal(pipe, mu, nu=30.0):
        rows_of = row_references.rows_of
        for qid in sorted(pipe.queries):
            data = pipe.query_data(qid)
            doc_m, psg_m = pipe.doc_vectors(qid, mu), pipe.psg_vectors(qid, mu)
            docs, psgs = row_references.table_of(doc_m), row_references.table_of(psg_m)
            by_doc = data.passages_by_doc
            full = pipe.qsf(qid, mu, 0.3)
            # A short passage list leaves documents with no ranked passage.
            doc_ids = doc_m.item_ids
            for psg_list in (full, row_references.truncated(full, 5)):
                table = PassageRanks(by_doc, psg_list)
                assert rows_of(
                    build_smpd_vectors(doc_m, table, nu)
                ) == row_references.smpd_rows(doc_ids, docs, by_doc, psg_list, nu)
                for which in ("best", "second", "third", "lowest"):
                    assert rows_of(
                        build_jpds_vectors(doc_m, psg_m, table, which=which)
                    ) == row_references.jpds_rows(
                        doc_ids, docs, psgs, by_doc, psg_list, which=which
                    )
                assert rows_of(
                    build_jpds_vectors(doc_m, psg_m, table, two_passages=True)
                ) == row_references.jpds_rows(
                    doc_ids, docs, psgs, by_doc, psg_list, two_passages=True
                )
                assert rows_of(
                    build_fpd_vectors(doc_m, psg_m, table)
                ) == row_references.fpd_rows(doc_ids, psgs, by_doc, psg_list)
            for agg in ("avg", "max", "min"):
                assert rows_of(
                    build_jpdm_vectors(doc_m, psg_m, by_doc, agg)
                ) == row_references.jpdm_rows(doc_ids, docs, psgs, by_doc, agg)

    def test_tiny_corpus(self, tmp_path):
        from test_experiment import _tiny_config, _tiny_corpus

        from psgrank.experiment import _Pipeline

        paths = _tiny_corpus(tmp_path)
        self._assert_builders_equal(_Pipeline.load(_tiny_config(paths, ["JPDs"])), 1500.0)
        ablated = _tiny_config(
            paths, ["JPDs"], exclusions=["psg.DocQuerySim", "psg.PsgQuerySim", "doc.SW1"]
        )
        self._assert_builders_equal(_Pipeline.load(ablated), 1500.0, nu=0.0)

    def test_jpdm_mean_over_many_passages(self):
        # Twelve passages per document reach numpy's unrolled summation.
        rng = np.random.default_rng(36)
        doc_ids = [f"d{i}" for i in range(5)]
        by_doc = {d: _passages_for(d, 12) for d in doc_ids}
        docs = (DOC_SCHEMA, {d: tuple(rng.normal(size=6).tolist()) for d in doc_ids})
        psgs = (PSG_SCHEMA, {
            p.passage_id: tuple((rng.normal(size=20) * 1e3).tolist())
            for d in doc_ids
            for p in by_doc[d]
        })
        for agg in ("avg", "max", "min"):
            assert row_references.rows_of(
                build_jpdm_vectors(_matrix(docs), _matrix(psgs), by_doc, agg)
            ) == row_references.jpdm_rows(doc_ids, docs, psgs, by_doc, agg)

    def test_empty_document_list_keeps_schema(self):
        _, passages_by_doc, _, psg_vectors, psg_list = _joint_fixture()
        empty = FeatureMatrix(DOC_SCHEMA, "q", [], np.zeros((0, len(DOC_SCHEMA))))
        table = PassageRanks(passages_by_doc, psg_list)
        out = build_jpds_vectors(empty, _matrix(psg_vectors), table)
        assert len(out) == 0 and len(out.schema) == 24
        out = build_smpd_vectors(empty, table, 30.0)
        assert len(out) == 0 and out.schema == SMPD_SCHEMA
        out = build_jpdm_vectors(empty, _matrix(psg_vectors), passages_by_doc, "avg")
        assert len(out) == 0 and len(out.schema) == 6 + 19
        out = build_fpd_vectors(empty, _matrix(psg_vectors), table)
        assert len(out) == 0 and out.schema == PSG_SCHEMA


def _ranked_passages_case(rng, n_docs, ranked_share):
    """Documents of 1-5 passages (one of them a single passage), a passage
    ranking over a random share of them with integer-valued scores (so ties
    break by id), and passage rows whose query similarity ties too."""
    doc_ids = [f"d{i:02d}" for i in rng.permutation(n_docs)]
    by_doc = {d: _passages_for(d, 1 if i == 0 else int(rng.integers(1, 6)))
              for i, d in enumerate(doc_ids)}
    pids = [p.passage_id for d in doc_ids for p in by_doc[d]]
    kept = [pid for pid in pids if rng.random() < ranked_share]
    psg_list = RankedList.from_scores("q", {pid: float(rng.integers(0, 6)) for pid in kept})
    sim = PSG_SCHEMA.index_of("PsgQuerySim")
    psgs = {}
    for pid in pids:
        values = rng.uniform(size=len(PSG_SCHEMA)).tolist()
        values[sim] = float(rng.integers(0, 3))
        psgs[pid] = tuple(values)
    docs = {d: tuple(rng.uniform(size=len(DOC_SCHEMA)).tolist()) for d in doc_ids}
    doc_list = RankedList.from_scores("q", {d: float(rng.integers(0, 4)) for d in doc_ids})
    return doc_list, by_doc, psg_list, (DOC_SCHEMA, docs), (PSG_SCHEMA, psgs)


class TestPassageRanks:
    """JPDs and FPD pick passages from a PassageRanks table, and RRF reads its
    best passage ranks; they equal the per-item references built on
    row_references.select_passage, bit for bit."""

    @pytest.mark.parametrize("ranked_share", [0.0, 0.3, 0.7, 1.0])
    def test_builders_equal_per_item_references(self, ranked_share):
        rows_of = row_references.rows_of
        rng = np.random.default_rng([41, int(ranked_share * 10)])
        for n_docs in (1, 12, 12, 12, 12, 12, 40, 40):
            doc_list, by_doc, psg_list, docs, psgs = _ranked_passages_case(
                rng, n_docs, ranked_share
            )
            table = PassageRanks(by_doc, psg_list)
            doc_m, psg_m = _matrix(docs), _matrix(psgs)
            doc_ids = doc_m.item_ids
            for which in ("best", "second", "third", "lowest"):
                assert rows_of(
                    build_jpds_vectors(doc_m, psg_m, table, which=which)
                ) == row_references.jpds_rows(doc_ids, docs, psgs, by_doc, psg_list, which)
            assert rows_of(
                build_jpds_vectors(doc_m, psg_m, table, two_passages=True)
            ) == row_references.jpds_rows(
                doc_ids, docs, psgs, by_doc, psg_list, two_passages=True
            )
            assert rows_of(build_fpd_vectors(doc_m, psg_m, table)) == (
                row_references.fpd_rows(doc_ids, psgs, by_doc, psg_list)
            )

    def test_picks_and_best_ranks_equal_select_passage(self):
        rng = np.random.default_rng(42)
        seen = set()
        for _ in range(20):
            doc_list, by_doc, psg_list, _, _ = _ranked_passages_case(rng, 10, 0.5)
            table = PassageRanks(by_doc, psg_list)
            doc_ids = doc_list.ids()
            for which in ("best", "second", "third", "lowest"):
                got = [table.passage_ids[i] if i >= 0 else None
                       for i in table.picks(doc_ids, which).tolist()]
                expected = []
                for d in doc_ids:
                    pick = row_references.select_passage(by_doc[d], psg_list, which)
                    expected.append(pick and pick.passage_id)
                    ranked = sum(p.passage_id in psg_list.ranks() for p in by_doc[d])
                    seen.add((which, min(ranked, 4), len(by_doc[d]) == 1))
                assert got == expected
            # The best pick holds the rank RRF reads as the document's r'.
            best = psg_list.best_passage_ranks()
            picks = table.picks(doc_ids, "best").tolist()
            assert [table.ranks[i] if i >= 0 else 0 for i in picks] == (
                [best.get(d, 0) for d in doc_ids]
            )
        # Every selector met documents with no, too few and enough ranked
        # passages, and single-passage documents.
        for which in ("best", "second", "third", "lowest"):
            assert {r for w, r, _ in seen if w == which} == {0, 1, 2, 3, 4}
            assert (which, 1, True) in seen and (which, 0, True) in seen

    def test_passages_outside_the_candidates_are_ignored(self):
        by_doc = {"d1": _passages_for("d1", 2)}
        psg_list = RankedList.from_scores("q", {"x#0": 3.0, "d1#1": 2.0})
        table = PassageRanks(by_doc, psg_list)
        assert table.ranks.tolist() == [0, 2]
        assert table.picks(["d1"], "best").tolist() == [1]
        with pytest.raises(ValueError, match="unknown passage selector"):
            table.picks(["d1"], "fourth")


class TestFusionGrid:
    """One query's RRF (alpha, nu) grid scored as array rows equals a scalar
    fusion and a scalar AP per point (row_references.fusion_grid_aps)."""

    POINTS = [{"alpha": round(0.1 * a, 1), "nu": nu}
              for a in range(11) for nu in (0.0, 30.0, 60.0, 90.0, 100.0)]

    @staticmethod
    def _grid(doc_list, other, judgments, cutoff, points):
        _, orders = fusion_rows(
            doc_list, other, [p["alpha"] for p in points], [p["nu"] for p in points]
        )
        return average_precisions(doc_list.query_id, doc_list.ids(), orders, judgments, cutoff)

    def test_rrf_grid_equals_per_point_loop(self):
        from psgrank.evaluation import JudgmentSet

        rng = np.random.default_rng(43)
        ties = 0
        for case in range(40):
            doc_list, by_doc, psg_list, _, _ = _ranked_passages_case(
                rng, int(rng.integers(1, 14)), float(rng.uniform(0.2, 1.0))
            )
            doc_ids = doc_list.ids()
            # Case 0 has no relevant document, so every AP is None.
            grades = {} if case == 0 else {d: int(rng.integers(0, 3)) for d in doc_ids}
            judgments = JudgmentSet("doc_graded", {"q": grades}, {})
            best = [psg_list.best_passage_ranks().get(d, 0) for d in doc_ids]
            for cutoff in (1, 3, len(doc_ids) + 2):
                assert self._grid(doc_list, best, judgments, cutoff, self.POINTS) == (
                    row_references.fusion_grid_aps(
                        doc_list, psg_list.best_passage_ranks(), self.POINTS, judgments, cutoff,
                    )
                )
            for p in self.POINTS:
                run = rerank_rrf(doc_list, psg_list, FusionParams(nu=p["nu"], alpha=p["alpha"]))
                scores = [s for _, s in run.entries]
                ties += len(scores) - len(set(scores))
        assert ties > 0

    def test_empty_document_list(self):
        from psgrank.evaluation import JudgmentSet

        judgments = JudgmentSet("doc_graded", {"q": {"d1": 1}}, {})
        empty = RankedList("q", ())
        assert self._grid(empty, [], judgments, 10, self.POINTS[:3]) == [0.0] * 3
        none = JudgmentSet("doc_graded", {}, {})
        assert self._grid(empty, [], none, 10, self.POINTS[:3]) == [None] * 3


class TestFusionEqualsScalarReference:
    """rerank_rrf and rerank_fpd are one row of fusion_rows; their entries,
    ids and scores, equal row_references.fuse, the scalar formula."""

    PARAMS = [FusionParams(nu=nu, alpha=alpha)
              for alpha in (0.0, 0.3, 0.5, 1.0) for nu in (0.0, 1.0, 60.0)]

    def test_rrf_and_fpd_equal_scalar_fusion(self):
        rng = np.random.default_rng(47)
        seen = Counter()
        for case in range(60):
            doc_list, _, psg_list, _, _ = _ranked_passages_case(
                rng, int(rng.integers(1, 16)), float(rng.uniform(0.0, 1.0))
            )
            doc_ids = doc_list.ids()
            # A model ranking over a random subset of the documents, with ties.
            model = RankedList.from_scores(
                "q", {d: float(rng.integers(0, 3)) for d in doc_ids if rng.random() < 0.8}
            )
            best = psg_list.best_passage_ranks()
            seen["without r'"] += sum(d not in best for d in doc_ids)
            seen["without model rank"] += sum(d not in model.ranks() for d in doc_ids)
            for params in self.PARAMS:
                rrf = rerank_rrf(doc_list, psg_list, params)
                fpd = rerank_fpd(doc_list, model, params)
                assert rrf.entries == row_references.fuse(doc_list, best, params).entries
                assert fpd.entries == row_references.fuse(doc_list, model.ranks(), params).entries
                scores = [s for _, s in rrf.entries]
                seen["ties"] += len(scores) - len(set(scores))
        assert all(seen[k] > 0 for k in ("without r'", "without model rank", "ties")), seen

    def test_empty_document_list(self):
        empty = RankedList("q", ())
        for params in self.PARAMS:
            assert rerank_rrf(empty, RankedList("q", ()), params) == empty
            assert rerank_fpd(empty, RankedList("q", ()), params) == empty
            assert row_references.fuse(empty, {}, params) == empty

    def test_scores_are_the_grid_row(self):
        doc_list = RankedList.from_scores("q", {"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0})
        model = RankedList.from_scores("q", {"d": 2.0, "c": 1.0})
        scores, orders = fusion_rows(doc_list, [0, 0, 2, 1], [0.2, 1.0], [0.0, 60.0])
        for row, params in enumerate((FusionParams(nu=0.0, alpha=0.2),
                                      FusionParams(nu=60.0, alpha=1.0))):
            fused = rerank_fpd(doc_list, model, params)
            ids = doc_list.ids()
            assert fused.entries == tuple(
                (ids[i], float(scores[row, i])) for i in orders[row].tolist()
            )
        # alpha = 1 keeps the document ranking.
        assert rerank_fpd(doc_list, model, FusionParams(alpha=1.0)).ids() == doc_list.ids()


class TestPstdev:
    @staticmethod
    def _lists(count, seed):
        """Lists of 2-10 floats: reciprocal ranks with unranked zeros (as SMPD
        makes them), repeats of two values, and magnitudes from 1e-5 to 1e3
        with zeros."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 11, size=count)
        owner = np.repeat(np.arange(count), sizes)
        kind = rng.integers(0, 3, size=count)[owner]
        nu = rng.choice([0.0, 30.0, 60.0, 90.0, 100.0], size=count)[owner]
        rr = 1.0 / (nu + rng.integers(1, 1500, size=len(owner)))
        rr[rng.random(len(owner)) < 0.3] = 0.0
        pool = rng.normal(size=(count, 2)) * 10.0 ** rng.integers(-5, 4, size=(count, 1))
        repeats = pool[owner, rng.integers(0, 2, size=len(owner))]
        spread = rng.normal(size=len(owner)) * 10.0 ** rng.uniform(-5, 3, size=len(owner))
        spread[rng.random(len(owner)) < 0.1] = 0.0
        values = np.choose(kind, [rr, repeats, spread])
        return [part.tolist() for part in np.split(values, np.cumsum(sizes)[:-1])]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="pstdev rounds twice before 3.11")
    def test_equals_statistics_pstdev(self):
        import statistics

        mismatches = [
            v for v in self._lists(100_000, 37) if pstdev(v) != statistics.pstdev(v)
        ]
        assert mismatches == []

    def test_correctly_rounded_root_of_exact_variance(self):
        from fractions import Fraction

        for values in self._lists(3_000, 38):
            exact = [Fraction(v) for v in values]
            mean = sum(exact) / len(exact)
            var = sum((x - mean) ** 2 for x in exact) / len(exact)
            got = pstdev(values)
            # got is the float nearest sqrt(var): var lies between the squares
            # of the midpoints to its neighbours.
            below = (Fraction(got) + Fraction(math.nextafter(got, 0.0))) / 2
            above = (Fraction(got) + Fraction(math.nextafter(got, math.inf))) / 2
            assert (below**2 if got > 0 else 0) <= var <= above**2, values

    def test_rounding_step_ignores_a_common_scale(self):
        # The rounding step gives one root for num and den at any common
        # scale 4**s, as its docstring says.
        from psgrank.rank import _sqrt_ratio

        for values in self._lists(2_000, 39) + [[0.0, 0.0], [0.5, 0.5, 0.0]]:
            ratios = [v.as_integer_ratio() for v in values]
            k = max(d.bit_length() for _, d in ratios) - 1
            a = [p << (k + 1 - d.bit_length()) for p, d in ratios]
            n = len(a)
            num, den = n * sum(x * x for x in a) - sum(a) ** 2, n * n << (2 * k)
            for s in (0, 1, 17, 1100):
                assert _sqrt_ratio(num << 2 * s, den << 2 * s) == pstdev(values), (values, s)

    def test_constant_and_simple(self):
        assert pstdev([0.25, 0.25, 0.25]) == 0.0
        assert pstdev([0.0, 0.0]) == 0.0
        assert pstdev([1.0, 3.0]) == 1.0
        assert pstdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 2.0
