import math
import re

import numpy as np
import pytest

import oracles
import row_references
from psgrank.evaluation import (
    CvPlan,
    JudgmentError,
    JudgmentSet,
    average_precision,
    check_ttest_params,
    interpolated_precision,
    load_char_qrels,
    load_doc_qrels,
    load_sentence_qrels,
    mean_metric,
    paired_ttest,
    precision_at,
    query_metrics,
    regularized_incomplete_beta,
    student_t_two_tailed_p,
)
from psgrank.rank import RankedList


def _run(ids):
    return RankedList("q1", tuple((i, float(len(ids) - r)) for r, i in enumerate(ids)))


def _doc_judgments(relevant, qid="q1"):
    return JudgmentSet("doc_graded", {qid: {d: 1 for d in relevant}}, {})


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        judgments = _doc_judgments({"a", "b"})
        assert average_precision(_run(["a", "b", "c"]), judgments) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        judgments = _doc_judgments({"b"})
        assert average_precision(_run(["a", "b"]), judgments) == pytest.approx(0.5)

    def test_no_relevant_query_excluded(self):
        judgments = JudgmentSet("doc_graded", {"q1": {"a": 0}}, {})
        assert average_precision(_run(["a"]), judgments) is None

    def test_cutoff_respected(self):
        judgments = _doc_judgments({"z"})
        run = _run(["a", "b", "z"])
        assert average_precision(run, judgments, cutoff=2) == 0.0

    def test_exhaustive_definition_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ids = [f"d{i}" for i in range(10)]
            rng.shuffle(ids)
            relevant = set(rng.choice(ids, size=int(rng.integers(1, 6)), replace=False))
            judgments = _doc_judgments(relevant)
            got = average_precision(_run(ids), judgments)
            assert got == pytest.approx(oracles.average_precision(ids, relevant))
            assert 0.0 <= got <= 1.0

    def test_appending_nonrelevant_never_increases(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            ids = [f"d{i}" for i in range(8)]
            rng.shuffle(ids)
            relevant = set(rng.choice(ids, size=3, replace=False))
            judgments = _doc_judgments(relevant)
            base_ap = average_precision(_run(ids), judgments)
            base_p = precision_at(_run(ids), judgments, 10)
            extended = ids + ["extra"]
            assert average_precision(_run(extended), judgments) <= base_ap + 1e-12
            assert precision_at(_run(extended), judgments, 10) <= base_p + 1e-12

    def test_score_value_invariance(self):
        judgments = _doc_judgments({"b", "c"})
        ids = ["a", "b", "c", "d"]
        run_a = RankedList("q1", tuple((i, float(10 - r)) for r, i in enumerate(ids)))
        run_b = RankedList("q1", tuple((i, 1.0 / (1 + r)) for r, i in enumerate(ids)))
        assert average_precision(run_a, judgments) == average_precision(run_b, judgments)


class TestAveragePrecisionEqualsScalarReference:
    """average_precision is one row of average_precisions; it equals the
    scalar loop of row_references.average_precision, bit for bit."""

    @staticmethod
    def _cases(rng, mode):
        for case in range(80):
            n = int(rng.integers(0, 30))
            if mode == "sentence_binary":  # binary grades of passage ids
                ids = list(dict.fromkeys(f"d{int(rng.integers(0, 5))}#s{i}" for i in range(n)))
                top = 2
            else:
                ids = [f"d{i:02d}" for i in rng.permutation(n)]
                top = 3
            # Judged items in and outside the run; case 0 judges nothing
            # relevant, and case 1 retrieves nothing of a relevant item.
            judged = ids + [f"x{i}" for i in range(int(rng.integers(0, 4)))]
            grades = {i: 0 if case == 0 else int(rng.integers(0, top))
                      for i in judged if rng.random() < 0.7}
            if case == 1:
                ids, grades = [], {"x0": 1}
            run = RankedList.from_scores("q1", {i: float(rng.integers(0, 4)) for i in ids})
            yield run, JudgmentSet(mode, {"q1": grades}, {})

    @pytest.mark.parametrize("mode", ["doc_graded", "sentence_binary"])
    def test_equals_scalar_loop(self, mode):
        rng = np.random.default_rng(29)
        seen = set()
        for run, judgments in self._cases(rng, mode):
            for cutoff in (1, 3, len(run) + 2):
                got = average_precision(run, judgments, cutoff)
                assert got == row_references.average_precision(run, judgments, cutoff)
                seen.add("none" if got is None else "empty" if not len(run) else "ap")
        assert seen == {"none", "empty", "ap"}

    def test_empty_run_and_nothing_relevant(self):
        empty = RankedList("q1", ())
        assert average_precision(empty, _doc_judgments({"a"})) == 0.0
        assert average_precision(empty, JudgmentSet("doc_graded", {}, {})) is None
        with pytest.raises(ValueError, match="cutoff"):
            average_precision(_run(["a"]), _doc_judgments({"a"}), cutoff=0)


class TestPrecisionAt:
    def test_all_and_none(self):
        ids = [f"d{i}" for i in range(10)]
        assert precision_at(_run(ids), _doc_judgments(set(ids)), 10) == 1.0
        assert precision_at(_run(ids), _doc_judgments({"zz"}), 10) == 0.0

    def test_short_list_padded(self):
        judgments = _doc_judgments({"a"})
        assert precision_at(_run(["a"]), judgments, 10) == pytest.approx(0.1)

    def test_oracle(self):
        rng = np.random.default_rng(3)
        ids = [f"d{i}" for i in range(10)]
        relevant = set(rng.choice(ids, size=4, replace=False))
        judgments = _doc_judgments(relevant)
        for k in (1, 3, 5, 10):
            assert precision_at(_run(ids), judgments, k) == pytest.approx(
                oracles.precision_at(ids, relevant, k)
            )


def _char_judgments(spans, qid="q1"):
    return JudgmentSet("char_focused", {}, {qid: spans})


class TestInterpolatedPrecision:
    def test_perfect_single_passage(self):
        spans = {"d1": [(0, 100)]}
        passage_spans = {"d1#0": ("d1", 0, 100)}
        run = _run(["d1#0"])
        ip, maip = interpolated_precision(
            run, _char_judgments(spans), passage_spans, recall_points=(0.01, 0.1)
        )
        assert ip[0.01] == 1.0 and ip[0.1] == 1.0
        assert maip == pytest.approx(1.0)

    def test_nothing_relevant_retrieved(self):
        spans = {"d1": [(0, 50)]}
        passage_spans = {"d2#0": ("d2", 0, 80)}
        run = _run(["d2#0"])
        ip, maip = interpolated_precision(
            run, _char_judgments(spans), passage_spans, recall_points=(0.01, 0.5)
        )
        assert ip[0.01] == 0.0 and ip[0.5] == 0.0
        assert maip == pytest.approx(0.0)

    def test_no_relevant_chars_query_returns_none(self):
        judgments = JudgmentSet("char_focused", {}, {"q1": {}})
        assert (
            interpolated_precision(_run(["d1#0"]), judgments, {"d1#0": ("d1", 0, 5)})
            is None
        )

    def test_overlapping_passages_bitmap_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            passage_spans = {}
            pids = []
            for d in ("d1", "d2"):
                offset = 0
                for i in range(3):
                    start = offset + int(rng.integers(0, 10))
                    end = start + int(rng.integers(5, 40))
                    # overlapping on purpose: shift back by a few chars
                    start = max(0, start - int(rng.integers(0, 10)))
                    pid = f"{d}#{i}"
                    passage_spans[pid] = (d, start, end)
                    pids.append(pid)
                    offset = end
            rng.shuffle(pids)
            rel = {
                "d1": [(5, 30), (20, 55)],
                "d2": [(10, 18)],
            }
            points = (0.01, 0.1, 0.5, 1.0)
            got = interpolated_precision(
                _run(pids), _char_judgments(rel), passage_spans, recall_points=points
            )
            expected = oracles.interpolated_precision_bitmap(
                pids, passage_spans, rel, points
            )
            assert got is not None and expected is not None
            got_ip, got_maip = got
            exp_ip, exp_maip = expected
            for x in points:
                assert got_ip[x] == pytest.approx(exp_ip[x], abs=1e-12)
            assert got_maip == pytest.approx(exp_maip, abs=1e-12)

    def test_suffix_max_equals_full_rescan(self):
        # Reference: the (recall, precision) curve walked the same way, with
        # every iP[x] taken as a max over a rescan of the whole curve.
        def rescan(pids, passage_spans, rel, points):
            rel, total = row_references.relevant_spans(_char_judgments(rel), "q1")
            curve = row_references.ip_curve(pids, passage_spans, rel, total)

            def ip(x):
                return max((p for r, p in curve if r >= x - 1e-12), default=0.0)

            return {x: ip(x) for x in points}, sum(ip(i / 100) for i in range(101)) / 101

        rng = np.random.default_rng(41)
        points = (0.0, 0.01, 0.1, 0.25, 0.5, 0.99, 1.0)
        for _ in range(200):
            docs = [f"d{k}" for k in range(int(rng.integers(1, 5)))]
            passage_spans = {}
            for d in docs:
                for i in range(int(rng.integers(1, 8))):
                    start = int(rng.integers(0, 150))
                    passage_spans[f"{d}#{i}"] = (d, start, start + int(rng.integers(1, 60)))
            rel = {}
            for d in docs:
                starts = rng.integers(0, 180, size=int(rng.integers(0, 4)))
                rel[d] = [(int(s), int(s) + int(rng.integers(1, 40))) for s in starts]
            if not any(rel.values()):
                rel[docs[0]] = [(0, 10)]
            pids = list(passage_spans)
            rng.shuffle(pids)
            pids = pids[: int(rng.integers(1, len(pids) + 1))]
            got = interpolated_precision(
                _run(pids), _char_judgments(rel), passage_spans, recall_points=points
            )
            expected = rescan(pids, passage_spans, rel, points)
            assert got == expected
            assert repr(got) == repr(expected)

    @staticmethod
    def _random_case(rng):
        """Passage spans that overlap, nest, touch or are empty (end <= start),
        in documents with and without relevant spans, and a shuffled run."""
        passage_spans = {}
        for d in range(int(rng.integers(1, 6))):
            edges = np.sort(rng.integers(-5, 120, size=4))
            shapes = [
                (int(edges[0]), int(edges[2])),  # overlaps the next one
                (int(edges[1]), int(edges[3])),
                (int(edges[1]), int(edges[2])),  # nested in both
                (int(edges[3]), int(edges[3]) + 7),  # touches the second
                (int(edges[2]), int(edges[2]) - int(rng.integers(0, 3))),  # empty
            ]
            for i in rng.permutation(len(shapes))[: int(rng.integers(1, len(shapes) + 1))]:
                passage_spans[f"d{d}#{i}"] = (f"d{d}", *shapes[i])
        rel = {}
        for d in range(int(rng.integers(1, 7))):  # d5: relevant, never retrieved
            if rng.random() < 0.7:
                starts = rng.integers(-10, 140, size=int(rng.integers(1, 4)))
                rel[f"d{d}"] = [(int(x), int(x) + int(rng.integers(-2, 50))) for x in starts]
        if not any(e > s for spans in rel.values() for s, e in spans):
            rel["d0"] = [(0, 10)]
        pids = list(passage_spans)
        rng.shuffle(pids)
        return pids[: int(rng.integers(0, len(pids) + 1))], passage_spans, rel

    def test_equals_passage_walk(self):
        rng = np.random.default_rng(43)
        points = (0.0, 0.01, 0.1, 0.5, 1.0, 0.1)
        seen = {"empty run": 0, "no rank reaches 0.1": 0, "full recall": 0}
        for _ in range(600):
            pids, passage_spans, rel = self._random_case(rng)
            run, judgments = _run(pids), _char_judgments(rel)
            got = interpolated_precision(run, judgments, passage_spans, recall_points=points)
            expected = row_references.interpolated_precision(
                run, judgments, passage_spans, recall_points=points
            )
            assert repr(got) == repr(expected)
            seen["empty run"] += not pids
            seen["no rank reaches 0.1"] += got[0][0.1] == 0.0
            seen["full recall"] += got[0][1.0] > 0.0
        assert all(seen.values()), seen

    def test_first_covers_equal_unique_form(self, monkeypatch):
        """First covering ranks grouped by an in-place key sort give what
        np.unique's stable sort gave, on nested, overlapping and empty spans."""
        from psgrank import evaluation

        passage_spans = {
            "d1#0": ("d1", 0, 50),
            "d1#1": ("d1", 10, 20),  # nested in d1#0
            "d1#2": ("d1", 40, 90),  # overlaps d1#0
            "d1#3": ("d1", 60, 60),  # empty
            "d1#4": ("d1", 70, 65),  # end before start
            "d2#0": ("d2", 5, 30),
            "d2#1": ("d2", 5, 30),  # equal to d2#0
            "d2#2": ("d2", 0, 100),  # holds d2#0
        }
        rel = {"d1": [(15, 45), (80, 95)], "d2": [(0, 8), (25, 60)], "d3": [(0, 4)]}
        rng = np.random.default_rng(44)
        cases = [
            (list(passage_spans), passage_spans, rel),
            (list(reversed(passage_spans)), passage_spans, rel),
            (["d1#3", "d1#4"], passage_spans, rel),
            ([], passage_spans, rel),
            *(self._random_case(rng) for _ in range(300)),
        ]
        points = (0.0, 0.01, 0.1, 0.5, 1.0)

        def results():
            return [
                repr(interpolated_precision(_run(p), _char_judgments(r), s, points))
                for p, s, r in cases
            ]

        got = results()
        monkeypatch.setattr(evaluation, "first_occurrences", row_references.first_occurrences)
        assert got == results()
        walk = [
            repr(row_references.interpolated_precision(_run(p), _char_judgments(r), s, points))
            for p, s, r in cases
        ]
        assert got == walk

    def test_rank_at_the_recall_tolerance_counts(self):
        # Rank 1 reaches recall 0.5 at precision 1; rank 2 recall 1 at 0.2.
        # iP[x] takes ranks with recall >= x - 1e-12, so rank 1 counts at
        # x = 0.5 + 1e-12, where x - 1e-12 is 0.5 exactly.
        x = 0.5 + 1e-12
        assert x - 1e-12 == 0.5
        passage_spans = {"d1#0": ("d1", 0, 1), "d1#1": ("d1", 1, 10)}
        run, judgments = _run(["d1#0", "d1#1"]), _char_judgments({"d1": [(0, 2)]})
        for ip in (interpolated_precision, row_references.interpolated_precision):
            got, _ = ip(run, judgments, passage_spans, recall_points=(x, 0.5 + 1e-11))
            assert got == {x: 1.0, 0.5 + 1e-11: 0.2}

    def test_ip_curve_non_increasing_in_x(self):
        passage_spans = {
            "d1#0": ("d1", 0, 40),
            "d1#1": ("d1", 40, 90),
            "d2#0": ("d2", 0, 60),
        }
        rel = {"d1": [(10, 50)], "d2": [(0, 20)]}
        points = tuple(i / 10 for i in range(11))
        ip, maip = interpolated_precision(
            _run(["d1#0", "d2#0", "d1#1"]), _char_judgments(rel), passage_spans, points
        )
        values = [ip[x] for x in points]
        assert values == sorted(values, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert 0.0 <= maip <= 1.0

    def test_wrong_mode_rejected(self):
        with pytest.raises(JudgmentError):
            interpolated_precision(_run(["a"]), _doc_judgments({"a"}), {})


class TestQrelsLoaders:
    def test_doc_qrels(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")
        j = load_doc_qrels(p)
        assert j.grade("q1", "d1") == 2
        assert j.relevant_count("q1") == 1
        assert j.has_judgments("q2")

    def test_doc_qrels_malformed(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 d1 2\n")
        with pytest.raises(JudgmentError, match=":1"):
            load_doc_qrels(p)

    def test_char_qrels(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\td1\t0\t100\nq1\td1\t150\t200\n")
        j = load_char_qrels(p)
        assert j.char_spans["q1"]["d1"] == [(0, 100), (150, 200)]

    def test_char_qrels_empty_span(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\td1\t10\t10\n")
        with pytest.raises(JudgmentError, match="span"):
            load_char_qrels(p)

    def test_sentence_qrels(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\td1#0\t1\nq1\td1#1\t0\n")
        j = load_sentence_qrels(p)
        assert j.grade("q1", "d1#0") == 1

    def test_sentence_qrels_nonbinary(self, tmp_path):
        p = tmp_path / "qrels.tsv"
        p.write_text("q1\td1#0\t3\n")
        with pytest.raises(JudgmentError, match="binary"):
            load_sentence_qrels(p)

    @pytest.mark.parametrize(
        "loader,text",
        [
            (load_doc_qrels, "q1 0 d1 1\nq1 0 d2 x\n"),
            (load_char_qrels, "q1\td1\t0\t10\nq1\td1\t5\tten\n"),
            (load_char_qrels, "q1\td1\t0\t10\nq1\td1\t1.5\t9\n"),
            (load_sentence_qrels, "q1\td1#0\t1\nq1\td1#1\tyes\n"),
        ],
    )
    def test_non_integer_field_names_path_and_line(self, tmp_path, loader, text):
        p = tmp_path / "qrels"
        p.write_text(text)
        with pytest.raises(JudgmentError, match=f"^{re.escape(str(p))}:2: not an integer: "):
            loader(p)


class TestQueryMetrics:
    def test_doc_row(self):
        run, judgments = _run(["a", "b", "c"]), _doc_judgments({"b", "z"})
        row = query_metrics(run, judgments, 2, {})
        assert list(row) == ["ap", "p10"]
        assert row["ap"] == average_precision(run, judgments, 2) == 0.25
        assert row["p10"] == precision_at(run, judgments, 10) == 0.1

    def test_char_focused_row(self):
        judgments = JudgmentSet("char_focused", {}, {"q1": {"d1": [(0, 10)]}})
        spans = {"d1#0": ("d1", 0, 5), "d1#1": ("d1", 5, 20)}
        run = _run(["d1#0", "d1#1"])
        row = query_metrics(run, judgments, 1000, spans)
        assert list(row) == ["ip_0.01", "ip_0.1", "maip"]
        ip, maip = interpolated_precision(run, judgments, spans, (0.01, 0.1))
        assert row == {"ip_0.01": ip[0.01], "ip_0.1": ip[0.1], "maip": maip}
        unjudged = RankedList("q2", run.entries)
        assert query_metrics(unjudged, judgments, 1000, spans) == dict.fromkeys(row)


class TestPairedTTest:
    def test_identical_samples(self):
        result = paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert result.t == 0.0
        assert result.p == 1.0
        assert not result.significant

    def test_constant_shift_degenerate(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_ttest([0.1, 0.2, 0.3], [1.1, 1.2, 1.3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ttest([0.1], [0.1, 0.2])
        with pytest.raises(ValueError):
            paired_ttest([0.1], [0.2])

    def test_twenty_sample_numeric_oracle(self):
        rng = np.random.default_rng(31)
        a = list(rng.uniform(0, 1, size=20))
        b = [x + float(rng.normal(0.05, 0.08)) for x in a]
        result = paired_ttest(a, b, alpha=0.05)
        diffs = [y - x for x, y in zip(a, b)]
        mean = sum(diffs) / len(diffs)
        var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
        t = mean / math.sqrt(var / len(diffs))
        assert result.t == pytest.approx(t, rel=1e-12)
        expected_p = oracles.t_two_tailed_p(t, 19)
        assert result.p == pytest.approx(expected_p, abs=1e-10)

    def test_bonferroni_correction_tightens_threshold(self):
        rng = np.random.default_rng(5)
        a = list(rng.uniform(0, 1, size=15))
        b = [x + 0.05 + float(rng.normal(0, 0.04)) for x in a]
        plain = paired_ttest(a, b, alpha=0.05, corrections=1)
        corrected = paired_ttest(a, b, alpha=0.05, corrections=1000)
        assert plain.p == corrected.p
        if plain.significant:
            assert not corrected.significant

    @pytest.mark.parametrize(
        "alpha,corrections,problem",
        [(0.0, 1, "alpha"), (1.0, 1, "alpha"), (5, 1, "alpha"), (float("nan"), 1, "alpha"),
         (0.05, 0, "corrections"), (0.05, -3, "corrections")],
    )
    def test_parameters_checked(self, alpha, corrections, problem):
        with pytest.raises(ValueError, match=f"^{problem} must"):
            check_ttest_params(alpha, corrections)
        with pytest.raises(ValueError, match=f"^{problem} must"):
            paired_ttest([0.1, 0.5, 0.2], [0.3, 0.4, 0.9], alpha=alpha, corrections=corrections)
        check_ttest_params(0.05, 1)

    @pytest.mark.parametrize("t,df", [(0.0, 5), (1.5, 3), (2.8, 19), (-2.1, 7), (10.0, 2)])
    def test_t_cdf_against_quadrature(self, t, df):
        got = student_t_two_tailed_p(t, df)
        expected = oracles.t_two_tailed_p(t, df)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) is the identity.
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


class TestCvPlan:
    def test_each_query_tested_once(self):
        plan = CvPlan(("q1", "q2", "q3", "q4", "q5"), seed=3)
        folds = plan.folds()
        assert sorted(f[0] for f in folds) == ["q1", "q2", "q3", "q4", "q5"]
        for test_q, train, val in folds:
            assert test_q not in train and test_q not in val
            assert not set(train) & set(val)
            assert len(train) >= 1 and len(val) >= 1
            assert sorted(train + val + [test_q]) == ["q1", "q2", "q3", "q4", "q5"]

    def test_validation_fraction(self):
        plan = CvPlan(tuple(f"q{i:02d}" for i in range(21)), seed=0)
        _, train, val = plan.folds()[0]
        assert len(val) == 4  # 20 percent of 20

    def test_single_query_rejected(self):
        with pytest.raises(ValueError, match="single-query|at least 2"):
            CvPlan(("q1",), seed=0)

    def test_deterministic(self):
        a = CvPlan(("q1", "q2", "q3", "q4"), seed=7).folds()
        b = CvPlan(("q1", "q2", "q3", "q4"), seed=7).folds()
        assert a == b


class TestMeanMetric:
    def test_skips_none(self):
        assert mean_metric([0.5, None, 1.0]) == pytest.approx(0.75)
        assert mean_metric([None, None]) == 0.0
