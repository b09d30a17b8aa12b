import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest

import oracles
import row_references
from psgrank import ltr
from psgrank.evaluation import JudgmentSet
from psgrank.features import FeatureMatrix, FeatureSchema, SchemaError, minmax_normalize
from psgrank.ltr import (
    LinearModel,
    TrainingError,
    TrainingSet,
    _misordered,
    bucket_grade,
    ndcg_at_k,
    passage_grades,
    score,
    train_coordinate_ascent,
    train_pairwise,
)
from psgrank.passage import Passage
from psgrank.rank import RankedList


def _queries(rows):
    """One (matrix, grades) pair per query, from (query_id, item_id, values,
    grade) rows; queries and items keep their row order."""
    n = len(rows[0][2])
    schema = FeatureSchema("t", tuple(f"f{i}" for i in range(n)))
    groups = {}
    for q, i, v, g in rows:
        groups.setdefault(q, []).append((i, v, g))
    return [
        (FeatureMatrix(schema, q, [i for i, _, _ in group], [v for _, v, _ in group]),
         [g for _, _, g in group])
        for q, group in groups.items()
    ]


def _training(rows) -> TrainingSet:
    return TrainingSet(_queries(rows))


def _matrix(rows, schema) -> FeatureMatrix:
    """One query's matrix from (item_id, values) rows."""
    return FeatureMatrix(schema, "q", [i for i, _ in rows], [v for _, v in rows])


class TestBucketGrade:
    @pytest.mark.parametrize(
        "rfrac,grade",
        [(0.05, 0), (0.10, 1), (0.25, 2), (0.30, 2), (0.50, 3), (0.75, 4), (0.99, 4)],
    )
    def test_paper_thresholds(self, rfrac, grade):
        assert bucket_grade(rfrac) == grade

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bucket_grade(-0.01)
        with pytest.raises(ValueError):
            bucket_grade(1.01)

    def test_monotone(self):
        grid = [i / 1000 for i in range(1001)]
        grades = [bucket_grade(x) for x in grid]
        assert grades == sorted(grades)


class TestPassageGrades:
    # d1's relevant span covers 80% of d1#0 and 20% of d1#1; d2 has no
    # relevant span; d3's one passage is empty.
    BY_DOC = {
        "d1": [Passage("d1#0", "d1", 0, (0, 10), (0, 100)),
               Passage("d1#1", "d1", 1, (10, 20), (100, 200))],
        "d2": [Passage("d2#0", "d2", 0, (0, 5), (0, 50))],
        "d3": [Passage("d3#0", "d3", 0, (0, 0), (0, 0))],
    }
    CHAR = JudgmentSet("char_focused", {}, {"q": {"d1": [(20, 120)], "d3": [(0, 10)]}})

    def test_char_focused_grades_by_relevant_characters(self):
        grades = passage_grades(self.CHAR, "q", self.BY_DOC)
        assert grades == {"d1#0": 4, "d1#1": 1, "d2#0": 0, "d3#0": 0}

    def test_unjudged_query_grades_every_passage_0(self):
        assert passage_grades(self.CHAR, "other", self.BY_DOC) == dict.fromkeys(
            ("d1#0", "d1#1", "d2#0", "d3#0"), 0
        )

    def test_sentence_binary_grades_by_passage_id(self):
        judgments = JudgmentSet("sentence_binary", {"q": {"d1#1": 1, "d9#0": 1}}, {})
        assert passage_grades(judgments, "q", self.BY_DOC) == {
            "d1#0": 0, "d1#1": 1, "d2#0": 0, "d3#0": 0
        }

    def test_no_judgments(self):
        assert passage_grades(None, "q", self.BY_DOC) == {}


class TestTrainPairwise:
    def test_separable_one_dimensional(self):
        rows = [("q1", f"p{i}", [1.0], 1) for i in range(3)]
        rows += [("q1", f"n{i}", [0.0], 0) for i in range(3)]
        model = train_pairwise(_training(rows), c=1.0, epochs=200, seed=0)
        assert model.weights[0] > 0
        diffs = np.array([[1.0]] * 9)
        assert _misordered(diffs @ np.array(model.weights)) == 0

    def test_no_signal_raises(self):
        data = _training([("q1", "a", [1.0], 1), ("q1", "b", [2.0], 1)])
        with pytest.raises(TrainingError, match="signal"):
            train_pairwise(data)

    def test_informative_feature_outweighs_noise(self):
        rng = np.random.default_rng(0)
        rows = []
        for q in range(4):
            for i in range(10):
                grade = i % 2
                rows.append(
                    (f"q{q}", f"i{i}", [float(grade), float(rng.uniform(-1, 1))], grade)
                )
        model = train_pairwise(_training(rows), c=1.0, epochs=300, seed=1)
        assert abs(model.weights[0]) > abs(model.weights[1])
        # Exhaustive grid over unit-norm directions: the trained model must
        # match the best achievable pairwise error.
        diffs = []
        for q in range(4):
            group = [r for r in rows if r[0] == f"q{q}"]
            for hi in group:
                for lo in group:
                    if hi[3] > lo[3]:
                        diffs.append(np.subtract(hi[2], lo[2]))
        diffs = np.array(diffs)
        best_err = min(
            _misordered(diffs @ np.array([math.cos(a), math.sin(a)]))
            for a in np.linspace(0, 2 * math.pi, 721)
        )
        assert _misordered(diffs @ np.array(model.weights)) == best_err

    def test_error_non_increasing_in_epoch_budget(self):
        rng = np.random.default_rng(3)
        rows = []
        for q in range(3):
            for i in range(8):
                vals = [float(rng.normal()), float(rng.normal())]
                rows.append((f"q{q}", f"i{i}", vals, int(rng.integers(0, 3))))
        data = _training(rows)
        diffs = []
        by_q = {}
        for r in rows:
            by_q.setdefault(r[0], []).append(r)
        for group in by_q.values():
            for hi in group:
                for lo in group:
                    if hi[3] > lo[3]:
                        diffs.append(np.subtract(hi[2], lo[2]))
        diffs = np.array(diffs)
        errors = [
            _misordered(diffs @ np.array(train_pairwise(data, c=0.5, epochs=e, seed=5).weights))
            for e in (1, 10, 50, 200)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_deterministic_bytes(self, tmp_path):
        rows = [("q1", f"i{i}", [float(i), float(-i)], i % 3) for i in range(9)]
        a = train_pairwise(_training(rows), c=0.01, epochs=50, seed=9)
        b = train_pairwise(_training(rows), c=0.01, epochs=50, seed=9)
        a.save(tmp_path / "a.json")
        b.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_pair_subsampling_is_seeded(self):
        rows = [("q1", f"p{i}", [1.0 + 0.01 * i], 1) for i in range(10)]
        rows += [("q1", f"n{i}", [0.01 * i], 0) for i in range(10)]
        data = _training(rows)  # 100 pairs, subsampled to 20
        a = train_pairwise(data, c=1.0, epochs=50, seed=4, max_pairs=20)
        b = train_pairwise(data, c=1.0, epochs=50, seed=4, max_pairs=20)
        assert a.weights == b.weights
        assert a.weights[0] > 0


class TestOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_weights_are_never_the_model(self):
        # A step of 1e308 overflows the weights in the first epoch, and so in
        # every epoch: no model is returned, not even the zero start. numpy's
        # overflow warnings are not raised either.
        for seed in range(3):
            data = _training(_random_rows(np.random.default_rng(seed)))
            with pytest.raises(TrainingError, match="learning_rate 1e\\+308 overflows"):
                train_pairwise(data, learning_rate=1e308)
            model = train_pairwise(data, learning_rate=1e300)
            assert all(math.isfinite(x) for x in model.weights)
            assert any(model.weights)

    # One feature, pairs with differences 1 and -0.5: epoch 0's weight,
    # 0.5 * c * learning_rate, orders one pair of two; epoch 1's overflows.
    LATE = [("q1", "a", [1.0], 1), ("q1", "b", [0.0], 0),
            ("q2", "a", [0.0], 1), ("q2", "b", [0.5], 0)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_after_a_better_epoch_keeps_it(self):
        model = train_pairwise(_training(self.LATE), c=0.01, learning_rate=1e200)
        assert model.weights == (0.5 * 0.01 * 1e200,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_after_no_better_epoch_is_an_error(self, monkeypatch):
        # Every epoch counted as misordering all pairs, as the zero start
        # does: epoch 0 is finite but no better, and epoch 1 overflows.
        monkeypatch.setattr(ltr, "_misordered", len)
        with pytest.raises(TrainingError, match="learning_rate 1e\\+200 overflows"):
            train_pairwise(_training(self.LATE), c=0.01, learning_rate=1e200)

    def test_nan_margin_counts_as_misordered(self):
        # Margins 1, NaN (inf - inf), -1 and 0.
        diffs = np.array([[1.0, 0.0], [np.inf, -np.inf], [-1.0, 0.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore"):
            assert _misordered(diffs @ np.array([1.0, 1.0])) == 3


class TestTrainerSettings:
    """Each trainer rejects a setting it cannot use before any training."""

    ROWS = [("q1", "a", [1.0], 1), ("q1", "b", [0.0], 0)]

    @pytest.mark.parametrize(
        "trainer,setting,message",
        [
            (train_pairwise, {"c": math.nan}, "c must be finite and >= 0, got nan"),
            (train_pairwise, {"c": math.inf}, "c must be finite and >= 0, got inf"),
            (train_pairwise, {"c": -1.0}, "c must be finite and >= 0, got -1.0"),
            (train_pairwise, {"learning_rate": math.nan}, "learning_rate must be finite and > 0"),
            (train_pairwise, {"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
            (train_pairwise, {"learning_rate": -math.inf}, "learning_rate must be finite"),
            (train_pairwise, {"epochs": -3}, "epochs must be >= 1, got -3"),
            (train_pairwise, {"epochs": 0}, "epochs must be >= 1, got 0"),
            (train_pairwise, {"max_pairs": 0}, "max_pairs must be >= 1, got 0"),
            (train_coordinate_ascent, {"restarts": -1}, "restarts must be >= 0, got -1"),
            (train_coordinate_ascent, {"max_passes": -1}, "max_passes must be >= 0, got -1"),
        ],
        ids=[
            "c-nan", "c-inf", "c-negative", "rate-nan", "rate-zero", "rate-minus-inf",
            "epochs-negative", "epochs-zero", "max-pairs-zero", "restarts-negative",
            "max-passes-negative",
        ],
    )
    def test_rejected(self, trainer, setting, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            trainer(_training(self.ROWS), **setting)

    def test_bounds_accepted(self):
        data = _training(self.ROWS)
        assert train_pairwise(data, c=0.0, epochs=1, max_pairs=1).weights == (0.0,)
        model = train_coordinate_ascent(data, restarts=0, max_passes=0)
        assert model.weights == (1.0,)

    def test_table_defaults_equal_the_signatures(self):
        # TRAINERS restates each trainer's keyword defaults; the two must agree.
        for function, settings in ltr.TRAINERS.values():
            parameters = inspect.signature(getattr(ltr, function)).parameters
            for s in settings:
                default = parameters[s.name].default
                assert (default, type(default)) == (s.default, type(s.default)), s.name


class TestCoordinateAscent:
    def test_perfect_feature_reaches_one(self):
        rng = np.random.default_rng(1)
        rows = []
        for q in range(3):
            for i in range(12):
                grade = int(rng.integers(0, 4))
                rows.append((f"q{q}", f"i{i:02d}", [float(grade), float(rng.normal())], grade))
        trace = []
        model = train_coordinate_ascent(_training(rows), restarts=2, seed=2, trace=trace)
        ndcgs = []
        for matrix, grades in _queries(rows):
            run = score(model, matrix)
            ndcgs.append(ndcg_at_k(run, dict(zip(matrix.item_ids, grades)), 10))
        assert sum(ndcgs) / len(ndcgs) == pytest.approx(1.0)

    def test_trace_monotone_within_restart(self):
        rng = np.random.default_rng(8)
        rows = []
        for q in range(3):
            for i in range(10):
                vals = [float(rng.normal()) for _ in range(3)]
                rows.append((f"q{q}", f"i{i}", vals, int(rng.integers(0, 3))))
        trace = []
        train_coordinate_ascent(_training(rows), restarts=3, seed=4, trace=trace)
        by_restart = {}
        for restart, obj in trace:
            by_restart.setdefault(restart, []).append(obj)
        for objs in by_restart.values():
            assert objs == sorted(objs)

    def test_zero_budget_returns_initial_weights(self):
        rows = [("q1", "a", [1.0, 2.0], 1), ("q1", "b", [0.0, 1.0], 0)]
        trace = []
        model = train_coordinate_ascent(
            _training(rows), restarts=3, seed=0, max_passes=0, trace=trace
        )
        assert model.weights == (0.5, 0.5)
        assert model.hyperparams == {"restarts": 3, "max_passes": 0, "k": 10, "seed": 0}
        # Only restart 0's uniform start is evaluated, where a (1.5) ranks
        # above b (0.5); no later restart runs.
        assert trace == [(0, 1.0)]

    def test_beats_every_single_feature_ranker(self):
        rng = np.random.default_rng(6)
        rows = []
        for q in range(4):
            for i in range(8):
                vals = [float(rng.normal()) for _ in range(3)]
                grade = int(vals[0] + 0.5 * vals[1] > 0)
                rows.append((f"q{q}", f"i{i}", vals, grade))
        model = train_coordinate_ascent(_training(rows), restarts=3, seed=7)

        def mean_ndcg(weights):
            groups = {}
            for q, i, v, g in rows:
                groups.setdefault(q, []).append((i, v, g))
            vals = []
            for group in groups.values():
                order = sorted(
                    ((i, sum(w * x for w, x in zip(weights, v))) for i, v, _ in group),
                    key=lambda kv: (-kv[1], kv[0]),
                )
                vals.append(ndcg_at_k(order, {i: g for i, _, g in group}, 10))
            return sum(vals) / len(vals)

        final = mean_ndcg(model.weights)
        for axis in range(3):
            single = [0.0] * 3
            single[axis] = 1.0
            assert final >= mean_ndcg(single) - 1e-12

    def test_no_signal_raises(self):
        data = _training([("q1", "a", [1.0], 2), ("q1", "b", [0.0], 2)])
        with pytest.raises(TrainingError):
            train_coordinate_ascent(data)

    def test_deterministic_bytes(self, tmp_path):
        rows = [("q1", f"i{i}", [float(i % 4), float(i % 3)], i % 2) for i in range(8)]
        data = _training(rows)
        train_coordinate_ascent(data, restarts=2, seed=3).save(tmp_path / "a.json")
        train_coordinate_ascent(data, restarts=2, seed=3).save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestScore:
    def test_unit_weight_ranks_by_feature(self):
        schema = FeatureSchema("s", ("f0", "f1"))
        matrix = _matrix([("a", (0.1, 5.0)), ("b", (0.9, 1.0))], schema)
        model = LinearModel(schema, (1.0, 0.0), "pairwise_hinge")
        assert score(model, matrix).ids() == ["b", "a"]
        model = LinearModel(schema, (0.0, 1.0), "pairwise_hinge")
        assert score(model, matrix).ids() == ["a", "b"]

    def test_zero_weights_all_ties_by_id(self):
        schema = FeatureSchema("s", ("f0",))
        rows = [(f"i{9 - i}", (float(i),)) for i in range(5)]
        model = LinearModel(schema, (0.0,), "pairwise_hinge")
        run = score(model, _matrix(rows, schema))
        assert run.ids() == sorted(i for i, _ in rows)

    def test_random_against_dot_product_sort(self):
        rng = np.random.default_rng(10)
        schema = FeatureSchema("s", tuple(f"f{i}" for i in range(4)))
        rows = [(f"i{i:02d}", tuple(rng.normal(size=4))) for i in range(20)]
        w = rng.normal(size=4)
        model = LinearModel(schema, tuple(float(x) for x in w), "pairwise_hinge")
        run = score(model, _matrix(rows, schema))
        expected = sorted(
            ((i, float(np.dot(w, v))) for i, v in rows),
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert run.ids() == [i for i, _ in expected]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(12)
        schema = FeatureSchema("s", tuple(f"f{i}" for i in range(3)))
        matrix = _matrix([(f"i{i}", rng.normal(size=3)) for i in range(10)], schema)
        w = tuple(float(x) for x in rng.normal(size=3))
        base = score(LinearModel(schema, w, "pairwise_hinge"), matrix).ids()
        scaled = score(
            LinearModel(schema, tuple(3.7 * x for x in w), "pairwise_hinge"), matrix
        ).ids()
        assert base == scaled

    def test_schema_mismatch(self):
        schema_a = FeatureSchema("a", ("x",))
        schema_b = FeatureSchema("b", ("y",))
        model = LinearModel(schema_a, (1.0,), "pairwise_hinge")
        with pytest.raises(SchemaError):
            score(model, _matrix([("i", (1.0,))], schema_b))


class TestScoreEqualsPerRowDot:
    """score ranks a matrix by one ``np.vecdot``; every score has the bits of
    the row's own ``np.dot(w, row)`` (row_references.score_rows), and the run
    breaks ties by ascending id."""

    @staticmethod
    def _assert_equal(weights, matrix):
        model = LinearModel(matrix.schema, tuple(float(w) for w in weights), "pairwise_hinge")
        expected = row_references.score_rows(model.weights, row_references.rows_of(matrix)[1])
        run = score(model, matrix)
        assert run.entries == RankedList.from_scores(matrix.query_id, expected).entries
        return run

    @staticmethod
    def _schema(n):
        return FeatureSchema("s", tuple(f"f{i}" for i in range(n)))

    def test_hand_built(self):
        one = self._schema(1)
        # One row, one column.
        self._assert_equal([2.5], _matrix([("a", (0.1,))], one))
        # One column, rows whose scores tie.
        rows = [("c", (1.0,)), ("a", (3.0,)), ("b", (1.0,)), ("d", (3.0,))]
        run = self._assert_equal([-0.5], _matrix(rows, one))
        assert run.ids() == ["b", "c", "a", "d"]
        # Rows that cancel to 0.1 + 0.2 - 0.3, which no exact sum gives.
        three = self._schema(3)
        rows = [("x", (0.1, 0.2, -0.3)), ("y", (0.3, -0.2, -0.1)), ("z", (1e300, -1e300, 1e-300))]
        self._assert_equal([1.0, 1.0, 1.0], _matrix(rows, three))
        # Zero weights tie every row.
        run = self._assert_equal([0.0] * 3, _matrix(rows, three))
        assert run.ids() == ["x", "y", "z"]

    @pytest.mark.parametrize("n_features", [1, 6, 13, 20, 24, 25, 33, 64])
    def test_random_widths_and_magnitudes(self, n_features):
        rng = np.random.default_rng([33, n_features])
        schema = self._schema(n_features)
        for n_rows in (1, 2, 7, 60, 200):
            ids = [f"i{i:03d}" for i in rng.permutation(n_rows)]
            # Magnitudes from 1e-300 to 1e300, column by column and row by row.
            scale = 10.0 ** rng.integers(-300, 301, size=(n_rows, n_features))
            values = rng.normal(size=(n_rows, n_features)) * scale
            weights = rng.normal(size=n_features)
            matrix = FeatureMatrix(schema, "q", ids, values)
            self._assert_equal(weights, matrix)
            # Rows from take (a new order and a subset) and from minmax_normalize.
            subset = [ids[i] for i in rng.permutation(n_rows)[: max(1, n_rows // 2)]]
            self._assert_equal(weights, matrix.take(subset))
            self._assert_equal(weights, minmax_normalize(matrix))
            # Integer-valued rows and weights, whose scores tie.
            ties = FeatureMatrix(schema, "q", ids, rng.integers(0, 2, size=(n_rows, n_features)))
            self._assert_equal(rng.integers(-1, 2, size=n_features), ties)


class TestNdcg:
    def test_perfect_ordering(self):
        grades = {"a": 3, "b": 2, "c": 1, "d": 0}
        run = [("a", 4.0), ("b", 3.0), ("c", 2.0), ("d", 1.0)]
        assert ndcg_at_k(run, grades, 10) == pytest.approx(1.0)

    def test_no_relevant(self):
        assert ndcg_at_k([("a", 1.0)], {"a": 0}, 10) == 0.0

    def test_five_item_permutation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            items = [f"i{j}" for j in range(5)]
            grades = {i: int(rng.integers(0, 4)) for i in items}
            order = list(rng.permutation(items))
            run = [(i, float(5 - r)) for r, i in enumerate(order)]
            got = ndcg_at_k(run, grades, 3)
            expected = oracles.ndcg(order, grades, 3)
            assert got == pytest.approx(expected, rel=1e-12)
            assert 0.0 <= got <= 1.0


class TestModelIO:
    def test_save_load_round_trip(self, tmp_path):
        schema = FeatureSchema("s", ("f0", "f1"))
        model = LinearModel(schema, (0.123456789012345, -2.5), "pairwise_hinge", {"c": 0.01})
        model.save(tmp_path / "m.json")
        loaded = LinearModel.load(tmp_path / "m.json")
        assert loaded == model

    def test_reloaded_joint_model_scores_joint_rows(self, tmp_path):
        from psgrank.rank import jpds_schema

        rng = np.random.default_rng(40)
        schema = jpds_schema()
        matrix = _matrix([(f"d{i}", rng.normal(size=len(schema))) for i in range(12)], schema)
        grades = [int(g) for g in rng.integers(0, 3, size=12)]
        model = train_pairwise(TrainingSet([(matrix, grades)]), c=1.0, epochs=50, seed=2)
        model.save(tmp_path / "jpds.json")
        loaded = LinearModel.load(tmp_path / "jpds.json")
        assert loaded == model
        assert score(loaded, matrix) == score(model, matrix)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"version": 1, "trainer": "\xff"}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:1:")) as info:
            LinearModel.load(path)
        assert not isinstance(info.value, UnicodeDecodeError)

    def test_missing_field_names_the_path_and_field(self, tmp_path):
        model = LinearModel(FeatureSchema("s", ("f0",)), (1.0,), "pairwise_hinge", {})
        model.save(tmp_path / "m.json")
        path = tmp_path / "bad.json"
        for field_name in ("features", "weights"):
            payload = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
            del (payload["schema"] if field_name == "features" else payload)[field_name]
            path.write_text(json.dumps(payload), encoding="utf-8")
            expected = f"{path}: model file has no field {field_name!r}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                LinearModel.load(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: [1, 2], 'expected a JSON object with "version": 1'),
            (lambda m: {**m, "version": 2}, 'expected a JSON object with "version": 1'),
            (
                lambda m: {**m, "schema": ["f0", "f1"]},
                '"schema": expected a JSON object with a "name" string '
                'and a "features" list of names',
            ),
            (
                lambda m: {**m, "schema": {"name": "s", "features": ["f0", "f0"]}},
                "schema 's' has duplicate feature names",
            ),
            (lambda m: {**m, "weights": [1.0, "x"]}, '"weights": expected a list'),
            (lambda m: {**m, "weights": [True, 1.0]}, '"weights": expected a list'),
            (lambda m: {**m, "weights": [math.nan, 1.0]}, '"weights": expected a list'),
            (lambda m: {**m, "weights": [10**400, 1.0]}, '"weights": expected a list'),
            (lambda m: {**m, "weights": 1.0}, '"weights": expected a list of finite numbers'),
            (lambda m: {**m, "weights": [1.0]}, "1 weights for schema 's' of length 2"),
            (lambda m: {**m, "trainer": 5}, 'expected a "trainer" string and a "hyperparams" object'),
            (lambda m: {**m, "hyperparams": [1]}, 'expected a "trainer" string'),
        ],
        ids=[
            "not-an-object", "version-2", "schema-a-list", "schema-repeats-a-feature",
            "weight-a-string", "weight-a-bool", "weight-nan", "weight-past-float-range",
            "weights-a-number", "weights-short", "trainer-a-number", "hyperparams-a-list",
        ],
    )
    def test_malformed_model_file_names_the_path(self, tmp_path, edit, message):
        LinearModel(FeatureSchema("s", ("f0", "f1")), (0.5, -1.0), "pairwise_hinge", {}).save(
            tmp_path / "m.json"
        )
        payload = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(payload)), encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            LinearModel.load(path)


def _random_rows(rng, n_queries=4, n_items=12, n_features=5, grades=4):
    """(query_id, item_id, values, grade) rows with queries interleaved, items
    listed out of id order and repeated grades."""
    rows = []
    for q in range(n_queries):
        for i in rng.permutation(n_items):
            values = rng.normal(size=n_features) * 10.0 ** rng.integers(-3, 3, size=n_features)
            rows.append((f"q{q}", f"i{i:02d}", values, int(rng.integers(0, grades))))
    rng.shuffle(rows)
    return rows


def _separable_rows(rng, n_queries=3, n_items=8):
    """Rows graded by a random linear score of features on scales 1, 10 and
    0.1, so that some take the hinge trainer many epochs to order."""
    w_star = rng.normal(size=4)
    rows = []
    for q in range(n_queries):
        values = rng.normal(size=(n_items, 4)) * np.array([1.0, 10.0, 0.1, 1.0])
        scores = values @ w_star
        grades = scores > np.median(scores)
        for i in rng.permutation(n_items):
            rows.append((f"q{q}", f"i{i:02d}", values[i], int(grades[i])))
    return rows


# Rows where no weight vector orders the pair: a before b in q1, b before a in q2.
_CONTRADICTORY_ROWS = [
    ("q1", "a", [1.0], 1), ("q1", "b", [0.0], 0),
    ("q2", "a", [1.0], 0), ("q2", "b", [0.0], 1),
]

# (rows, max_pairs, c, best epoch or None for some epoch > 0, error of the best epoch is 0)
_HINGE_CASES = {
    "random": (_random_rows(np.random.default_rng(33)), 10**6, 0.01, None, False),
    "random-wide": (_random_rows(np.random.default_rng(34), n_features=9), 10**6, 0.5, None, False),
    "subsampled": (_random_rows(np.random.default_rng(35), n_items=20), 150, 0.1, None, False),
    # Separable in one step: no later epoch beats the first.
    "best-epoch-0": (
        [("q1", f"p{i}", [1.0], 1) for i in range(3)]
        + [("q1", f"n{i}", [0.0], 0) for i in range(3)], 10**6, 1.0, 0, True,
    ),
    "separable-at-epoch-0": (_separable_rows(np.random.default_rng(0)), 10**6, 0.1, 0, True),
    # One misordered pair from epoch 0 to 17, none from epoch 18.
    "separable-at-epoch-18": (_separable_rows(np.random.default_rng(21)), 10**6, 0.1, 18, True),
    # Misordered pairs fall from 8 at epoch 0 to 1 at epoch 61, and to 0 at 65.
    "separable-at-epoch-65": (_separable_rows(np.random.default_rng(29)), 10**6, 0.1, 65, True),
    # The zero start misorders both pairs and no step leaves it.
    "never-leaves-zero": (_CONTRADICTORY_ROWS, 10**6, 1.0, -1, False),
}


class TestBitExactContracts:
    """The matrix code equals the per-row loops it replaced, bit for bit."""

    def test_difference_matrix_equals_nested_loops(self):
        from psgrank.ltr import _difference_matrix

        rng = np.random.default_rng(31)
        for trial in range(5):
            rows = _random_rows(rng)
            expected = row_references.difference_rows(rows, 10**6, seed=trial)
            got = _difference_matrix(_training(rows), 10**6, seed=trial)
            assert got.shape == expected.shape and len(got) > 100
            assert np.array_equal(got, expected)
            # The subsample draws the same rows, so their order must match.
            expected = row_references.difference_rows(rows, 37, seed=trial)
            got = _difference_matrix(_training(rows), 37, seed=trial)
            assert got.shape == (37, 5)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "rows,max_pairs,c,best_epoch,separable", _HINGE_CASES.values(), ids=_HINGE_CASES.keys()
    )
    def test_one_product_trainer_equals_two_product_loop(
        self, rows, max_pairs, c, best_epoch, separable
    ):
        from psgrank.ltr import _difference_matrix

        data = _training(rows)
        assert max_pairs == 10**6 or len(_difference_matrix(data, 10**6, seed=7)) > max_pairs
        diffs = _difference_matrix(data, max_pairs, seed=7)
        expected, epoch = row_references.pairwise_hinge(diffs, c, epochs=80, learning_rate=0.5)
        got = train_pairwise(data, c=c, epochs=80, seed=7, learning_rate=0.5, max_pairs=max_pairs)
        assert got.weights == expected
        if best_epoch is not None:
            assert epoch == best_epoch
        else:
            assert 0 < epoch < 79  # epochs after the best one must leave it unchanged
        assert (_misordered(diffs @ np.array(expected)) == 0) == separable

    @pytest.mark.parametrize("case", ["best-epoch-0", "separable-at-epoch-18", "random"])
    def test_no_epoch_runs_after_the_first_with_no_misordered_pair(self, monkeypatch, case):
        from psgrank import ltr

        rows, max_pairs, c, best_epoch, separable = _HINGE_CASES[case]
        counts = []
        misordered = ltr._misordered

        def counting(margins):
            counts.append(misordered(margins))
            return counts[-1]

        monkeypatch.setattr(ltr, "_misordered", counting)
        data = _training(rows)
        model = train_pairwise(data, c=c, epochs=80, seed=7, max_pairs=max_pairs)
        # One count for the zero start, then one per epoch run.
        assert len(counts) == (best_epoch + 2 if separable else 81)
        assert (counts[-1] == 0) == separable and 0 not in counts[:-1]
        diffs = ltr._difference_matrix(data, max_pairs, seed=7)
        assert _misordered(diffs @ np.array(model.weights)) == min(counts)

    @staticmethod
    def _ndcg_rows(rng):
        """Queries of 1 to 30 items with grades 0-3, one of them all zero,
        small integer features with duplicated rows, so scores tie."""
        rows = []
        for q in range(6):
            n_items = int(rng.integers(1, 31))
            values = rng.integers(-2, 3, size=(n_items, 4)).astype(float)
            values[n_items // 2:] = values[: n_items - n_items // 2]
            for i in rng.permutation(n_items):
                grade = 0 if q == 2 else int(rng.integers(0, 4))
                rows.append((f"q{q}", f"i{i:02d}", values[i], grade))
        return rows

    def test_ndcg_objective_equals_sorted_loop(self):
        from psgrank.ltr import _ndcg_objective

        rng = np.random.default_rng(36)
        for _ in range(4):
            data = _training(self._ndcg_rows(rng))
            assert any(len(m) < 10 for m, _ in data.queries)
            assert any(len(m) > 10 for m, _ in data.queries)
            for k in (1, 3, 10):
                got, expected = _ndcg_objective(data, k), row_references.ndcg_objective(data, k)
                weight_sets = [np.zeros(4), np.full(4, -1.0)] + [
                    rng.normal(size=4) * rng.integers(-1, 2, size=4) for _ in range(25)
                ]
                for w in weight_sets:
                    assert repr(got(w)) == repr(expected(w))

    def test_ndcg_at_k_equals_scalar_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            items = [f"i{j}" for j in range(int(rng.integers(0, 15)))]
            grades = {i: int(rng.integers(0, 4)) for i in items if rng.random() < 0.8}
            run = [(i, 0.0) for i in rng.permutation(items + ["unjudged"])]
            for k in (1, 5, 10):
                got = ndcg_at_k(run, grades, k)
                assert repr(got) == repr(row_references.ndcg_at_k(run, grades, k))

    @pytest.mark.parametrize("restarts,seed", [(1, 0), (3, 5)])
    def test_coordinate_ascent_equals_reference_objective_run(self, monkeypatch, restarts, seed):
        import psgrank.ltr as ltr

        data = _training(self._ndcg_rows(np.random.default_rng(38)))
        trace = []
        model = train_coordinate_ascent(data, restarts=restarts, seed=seed, trace=trace)
        monkeypatch.setattr(ltr, "_ndcg_objective", row_references.ndcg_objective)
        expected_trace = []
        expected = train_coordinate_ascent(
            data, restarts=restarts, seed=seed, trace=expected_trace
        )
        assert model.weights == expected.weights
        assert repr(trace) == repr(expected_trace) and len(trace) > restarts

    def test_difference_matrix_no_signal_raises(self):
        from psgrank.ltr import _difference_matrix

        data = _training([("q1", "a", [1.0], 1), ("q1", "b", [0.0], 1)])
        with pytest.raises(TrainingError):
            _difference_matrix(data, 10, seed=0)

    def test_score_equals_per_row_dot(self):
        rng = np.random.default_rng(32)
        for n_features in (6, 13, 24, 25, 39):
            schema = FeatureSchema("s", tuple(f"f{i}" for i in range(n_features)))
            matrix = _matrix(
                [(f"i{i:03d}", rng.normal(size=n_features)) for i in range(200)], schema
            )
            weights = tuple(float(x) for x in rng.normal(size=n_features))
            model = LinearModel(schema, weights, "pairwise_hinge")
            run = score(model, matrix)
            rows = row_references.rows_of(matrix)[1]
            assert dict(run.entries) == row_references.score_rows(weights, rows)

    def test_training_set_counts_rows_and_orders_queries(self):
        rows = [("q2", "b", [1.0], 1), ("q1", "a", [2.0], 0), ("q2", "a", [0.0], 0)]
        train = _training(rows)
        assert len(train) == 3
        assert [m.query_id for m, _ in train.queries] == ["q1", "q2"]
        assert train.queries[1][0].item_ids == ("b", "a")
        assert train.queries[1][1].tolist() == [1, 0]
        with pytest.raises(ValueError, match="grades for"):
            TrainingSet([(train.queries[0][0], [0, 1])])
        with pytest.raises(TrainingError, match="no training examples"):
            train_pairwise(TrainingSet([]))
        with pytest.raises(ValueError, match="lists an item id twice"):
            _training([("q1", "a", [2.0], 0), ("q1", "a", [0.0], 1)])


def _few_violating_rows():
    """4 queries of 20 rows graded 0-3 by a noisy linear score of features on
    scales 1, 10 and 0.1: from epoch 1 on, only 1-4 % of the pairs keep a
    margin below 1, as in the deep workload's trainings."""
    rng = np.random.default_rng(30)
    w_star = rng.normal(size=4)
    rows = []
    for q in range(4):
        values = rng.normal(size=(20, 4)) * np.array([1.0, 10.0, 0.1, 1.0])
        scores = values @ w_star
        scores = scores + rng.normal(size=20) * 0.1 * scores.std()
        grades = np.searchsorted(np.quantile(scores, [0.5, 0.8, 0.95]), scores)
        for i in rng.permutation(20):
            rows.append((f"q{q}", f"i{i:02d}", values[i], int(grades[i])))
    return rows


# (rows, train_pairwise settings); epochs 80 and seed 7 unless given.
_EPOCH_CASES = {
    "few-violating": (_few_violating_rows(), {"c": 0.1}),
    "one-feature": (_random_rows(np.random.default_rng(41), n_features=1), {"c": 0.01}),
    "c-zero": (_random_rows(np.random.default_rng(42)), {"c": 0.0}),
    "max-pairs": (
        _random_rows(np.random.default_rng(43), n_items=20), {"c": 0.1, "max_pairs": 60}
    ),
    # Epoch 0 orders one pair of two and epoch 1 overflows: epoch 0 is the model.
    "overflow-after-better-epoch": (TestOverflow.LATE, {"c": 0.01, "learning_rate": 1e200}),
    # Epoch 0 overflows: no model, a TrainingError.
    "overflow-at-epoch-0": (
        _random_rows(np.random.default_rng(44)), {"c": 0.01, "learning_rate": 1e308}
    ),
}


class TestEpochCases:
    """The trainer's epochs, which gather the violating pairs by index in one
    error state, give the weights of row_references.pairwise_hinge, which
    gathers them by a boolean mask, bit for bit, in the cases real runs
    reach."""

    @staticmethod
    def _both(rows, settings):
        settings = {"epochs": 80, "seed": 7, "learning_rate": 0.5, "max_pairs": 10**6, **settings}
        data = _training(rows)
        diffs = ltr._difference_matrix(data, settings["max_pairs"], settings["seed"])
        violating = []
        expected, epoch = row_references.pairwise_hinge(
            diffs, settings["c"], settings["epochs"], settings["learning_rate"], violating
        )
        if expected is None:
            with pytest.raises(TrainingError, match="overflows the weights"):
                train_pairwise(data, **settings)
            return None, None, epoch, violating
        got = train_pairwise(data, **settings)
        return got.weights, expected, epoch, violating

    @pytest.mark.parametrize("case", _EPOCH_CASES)
    def test_weight_bits_equal_mask_loop(self, case):
        got, expected, epoch, violating = self._both(*_EPOCH_CASES[case])
        if got is not None:
            assert np.array(got).tobytes() == np.array(expected).tobytes()
        if case == "few-violating":
            assert epoch > 30 and all(0.01 <= v <= 0.04 for v in violating[1:])
        elif case == "c-zero":
            assert epoch == -1 and got == (0.0,) * 5
        elif case == "overflow-after-better-epoch":
            assert epoch == 0 and got == (0.5 * 0.01 * 1e200,)
        elif case == "overflow-at-epoch-0":
            assert epoch == -1 and got is None
        else:
            assert epoch > 0
        if case == "one-feature":
            assert len(got) == 1
        if case == "max-pairs":
            assert len(ltr._difference_matrix(_training(_EPOCH_CASES[case][0]), 10**6, 7)) > 60

    def test_no_warning_escapes_the_error_state(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows, settings in _EPOCH_CASES.values():
                self._both(rows, settings)


class TestDifferenceGather:
    """The difference matrix, one gather over every query's (hi, lo) pairs
    from the stacked matrices, equals the per-query blocks of
    row_references.difference_blocks bit for bit."""

    SCHEMA = FeatureSchema("t", ("f0", "f1", "f2"))

    def _queries(self, rng, grades_of):
        """5 queries of 0 to 14 rows listed out of item-id order, each
        graded by ``grades_of(query, n)``; values on scales 1e-3 to 1e3."""
        queries = []
        for q, n in enumerate((9, 0, 14, 1, 6)):
            values = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=(n, 3))
            ids = [f"d{i:02d}" for i in rng.permutation(n)]
            matrix = FeatureMatrix(self.SCHEMA, f"q{4 - q}", ids, values.reshape(n, 3))
            queries.append((matrix, grades_of(q, n)))
        return queries

    CASES = {
        "graded": lambda rng: lambda q, n: rng.integers(0, 4, size=n).tolist(),
        "tied": lambda rng: lambda q, n: rng.integers(0, 2, size=n).tolist(),
        # Query 0 has every row at grade 2, so it adds no pair.
        "one-query-all-equal": lambda rng: lambda q, n: (
            [2] * n if q == 0 else rng.integers(0, 3, size=n).tolist()
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("max_pairs", [10**6, 40, 1])
    def test_gather_equals_per_query_blocks(self, case, max_pairs):
        for seed in range(4):
            rng = np.random.default_rng([seed, 47])
            data = TrainingSet(self._queries(rng, self.CASES[case](rng)))
            assert [len(m) for m, _ in data.queries] == [6, 1, 14, 9]  # the empty query dropped
            want = row_references.difference_blocks(data, max_pairs, seed)
            got = ltr._difference_matrix(data, max_pairs, seed)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            if max_pairs == 40:
                assert len(row_references.difference_blocks(data, 10**6, seed)) > 40

    def test_no_pair_raises_as_before(self):
        rng = np.random.default_rng(48)
        data = TrainingSet(self._queries(rng, lambda q, n: [1] * n))
        for build in (row_references.difference_blocks, ltr._difference_matrix):
            with pytest.raises(TrainingError, match="no training signal"):
                build(data, 10**6, 0)
        for build in (row_references.difference_blocks, ltr._difference_matrix):
            with pytest.raises(TrainingError, match="no training signal"):
                build(TrainingSet([]), 10**6, 0)

    def test_grade_pairs_order(self):
        # Item-id order, hi outer, lo inner, as nested loops list them.
        rng = np.random.default_rng(49)
        for _ in range(50):
            n = int(rng.integers(0, 12))
            ids = [f"i{int(i):02d}" for i in rng.permutation(n)]
            grades = rng.integers(0, 3, size=n).tolist()
            by_id = sorted(range(n), key=ids.__getitem__)
            want = [(a, b) for a in by_id for b in by_id if grades[a] > grades[b]]
            hi, lo = ltr.grade_pairs(ids, grades)
            assert list(zip(hi.tolist(), lo.tolist())) == want

    def test_given_pairs_are_the_ones_gathered(self):
        # A caller's pairs callable is asked once per query and replaces the
        # computed pairs; the hinge trainer's weights keep their bits.
        rng = np.random.default_rng(50)
        queries = self._queries(rng, self.CASES["graded"](rng))
        asked = []

        def pairs(matrix, grades):
            asked.append(matrix.query_id)
            return ltr.grade_pairs(matrix.item_ids, grades)

        kept = TrainingSet(queries, pairs)
        want = train_pairwise(TrainingSet(queries), c=0.1, epochs=30, seed=3, max_pairs=25)
        got = train_pairwise(kept, c=0.1, epochs=30, seed=3, max_pairs=25)
        assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()
        assert asked == ["q0", "q1", "q2", "q4"]


class TestRowOrder:
    """Permuting a query's rows, each keeping its item id and grade, changes
    no bit of the min-max, of either trainer's weights or of a scored run:
    the trainers read rows in item-id order, min-max reads each column's
    extremes, and a run orders ties by id. So a matrix builder's row order
    (JPDm's follows the fold's document ranking) cannot reach a model."""

    SCHEMA = FeatureSchema("t", tuple(f"f{i}" for i in range(5)))

    def _queries(self, rng):
        queries = []
        for q in range(4):
            n = int(rng.integers(8, 16))
            values = rng.normal(size=(n, 5)) * np.array([1e-3, 1.0, 1.0, 1e3, 7.0])
            values[1] = values[0]  # a repeated row
            values[-1] = values[2]
            values[:, 4] = values[0, 4]  # a constant column
            ids = [f"d{i:02d}" for i in rng.permutation(n)]
            grades = rng.integers(0, 3, size=n).tolist()  # tied grades
            queries.append((FeatureMatrix(self.SCHEMA, f"q{q}", ids, values), grades))
        return queries

    @staticmethod
    def _permuted(queries, rng):
        out = []
        for matrix, grades in queries:
            order = rng.permutation(len(matrix))
            out.append(
                (matrix.take([matrix.item_ids[i] for i in order]), [grades[i] for i in order])
            )
        return out[::-1]

    @staticmethod
    def _bits(weights) -> list[str]:
        return [float(w).hex() for w in weights]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_minmax_train_and_score_ignore_row_order(self, seed):
        rng = np.random.default_rng([seed, 41])
        queries = self._queries(rng)
        shuffled = self._permuted(queries, rng)
        for (matrix, _), (moved, _) in zip(queries, shuffled[::-1]):
            want = minmax_normalize(matrix).values
            got = minmax_normalize(moved).take(matrix.item_ids).values
            assert want.tobytes() == got.tobytes()
        data, moved = TrainingSet(queries), TrainingSet(shuffled)
        models = []
        for max_pairs in (10**6, 7):  # all pairs, and a seeded subsample
            for c in (0.01, 10.0):
                want = train_pairwise(data, c=c, epochs=40, seed=seed, max_pairs=max_pairs)
                got = train_pairwise(moved, c=c, epochs=40, seed=seed, max_pairs=max_pairs)
                assert self._bits(want.weights) == self._bits(got.weights)
                models.append(want)
        for restarts in (0, 2):
            want = train_coordinate_ascent(data, restarts=restarts, seed=seed, max_passes=4)
            got = train_coordinate_ascent(moved, restarts=restarts, seed=seed, max_passes=4)
            assert self._bits(want.weights) == self._bits(got.weights)
            models.append(want)
        for model in models:
            for (matrix, _), (moved_matrix, _) in zip(queries, shuffled[::-1]):
                want, got = score(model, matrix), score(model, moved_matrix)
                assert [(i, s.hex()) for i, s in want] == [(i, s.hex()) for i, s in got]
