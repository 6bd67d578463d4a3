import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evarg.files import ConfigError
from evarg.variability import (
    load_vectors,
    pearson,
    variability,
    variability_report,
)


def cluster(*vectors):
    return tuple(tuple(v) for v in vectors)


# --- variability formula ---------------------------------------------------


def test_identical_vectors_have_zero_variability():
    assert variability(cluster([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])) == 0.0


def test_symmetric_pair_hand_oracle():
    # mean of (0,0) and (2,0) is (1,0); both sit at distance 1
    assert variability(cluster([0.0, 0.0], [2.0, 0.0])) == pytest.approx(1.0)


def test_three_point_hand_oracle():
    # mean of (0,), (3,), (6,) is (3,); distances 3, 0, 3 average to 2
    assert variability(cluster([0.0], [3.0], [6.0])) == pytest.approx(2.0)


def test_single_vector_cluster_is_zero():
    assert variability(cluster([4.0, 5.0, 6.0])) == 0.0


@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
)
def test_translation_invariance(vectors, shift):
    base = variability(cluster(*vectors))
    moved = variability(cluster(*[[a + b for a, b in zip(v, shift)] for v in vectors]))
    assert moved == pytest.approx(base, abs=1e-6)


@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=2),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.1, 5.0),
)
def test_positive_scaling_scales_variability(vectors, factor):
    base = variability(cluster(*vectors))
    scaled = variability(cluster(*[[factor * x for x in v] for v in vectors]))
    assert scaled == pytest.approx(factor * base, rel=1e-6, abs=1e-6)


# --- pearson ---------------------------------------------------------------


def test_pearson_perfect_positive_and_negative():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_pearson_hand_oracle():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [1.0, 3.0, 2.0, 5.0]
    x = np.asarray(xs)
    y = np.asarray(ys)
    want = float(((x - x.mean()) * (y - y.mean())).sum() / (
        math.sqrt(((x - x.mean()) ** 2).sum()) * math.sqrt(((y - y.mean()) ** 2).sum())
    ))
    assert pearson(xs, ys) == pytest.approx(want)


def test_pearson_undefined_cases_return_none():
    assert pearson([], []) is None
    assert pearson([1.0], [2.0]) is None
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
    # the mean of equal values can differ from them in the last digit
    assert pearson([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]) is None
    # a spread whose square underflows to zero
    assert pearson([0.0, 1e-200], [0.0, 1.0]) is None


def test_pearson_length_mismatch_raises():
    with pytest.raises(ValueError, match="series length mismatch"):
        pearson([1.0, 2.0], [1.0])


def test_pearson_bounded():
    assert -1.0 <= pearson([0.1, 4.0, 2.0, 3.3], [9.0, 1.0, 5.0, 2.0]) <= 1.0


# --- numpy as the oracle ---------------------------------------------------

FINITE = st.floats(-100, 100)


@given(st.lists(st.lists(FINITE, min_size=3, max_size=3), min_size=1, max_size=7))
def test_variability_equals_numpy(vectors):
    matrix = np.asarray(vectors)
    want = float(np.linalg.norm(matrix - matrix.mean(axis=0), axis=1).mean())
    assert variability(cluster(*vectors)) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=7))
def test_pearson_equals_numpy(pairs):
    xs, ys = (list(series) for series in zip(*pairs))
    # undefined for a constant series, or one whose variance underflows to zero
    if len(set(xs)) == 1 or len(set(ys)) == 1 or 0 in np.diag(np.cov(xs, ys)):
        assert pearson(xs, ys) is None
    else:
        # r's rounding error is bounded by a few ulps of 1 whatever the spread
        assert pearson(xs, ys) == pytest.approx(float(np.corrcoef(xs, ys)[0, 1]), abs=1e-12)


# --- vector files ----------------------------------------------------------


def test_load_vectors_fixture(fixtures_dir):
    vectors = load_vectors(str(fixtures_dir / "vectors.jsonl"))
    assert "train-001" in vectors
    dims = {len(v) for v in vectors.values()}
    assert dims == {4}


def test_load_vectors_rejects_dimension_drift(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text(
        '{"example_id": "a", "values": [1.0, 2.0]}\n'
        '{"example_id": "b", "values": [1.0]}\n'
    )
    with pytest.raises(ConfigError, match=":2"):
        load_vectors(str(path))


def test_load_vectors_rejects_duplicates(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text(
        '{"example_id": "a", "values": [1.0]}\n{"example_id": "a", "values": [2.0]}\n'
    )
    with pytest.raises(ConfigError, match="duplicate"):
        load_vectors(str(path))


def test_load_vectors_rejects_empty_values_and_bad_json(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"example_id": "a", "values": []}\n')
    with pytest.raises(ConfigError, match="empty vector"):
        load_vectors(str(empty))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("nope\n")
    with pytest.raises(ConfigError, match="bad vector record"):
        load_vectors(str(bad))
    # values must be a list of finite numbers and the id a string, as a report names it
    for record in (
        '{"example_id": "a", "values": "123"}',
        '{"example_id": "a", "values": [true, false, 1]}',
        '{"example_id": 5, "values": [1.0]}',
        '{"example_id": "a", "values": [1%s]}' % ("0" * 400),
        '{"example_id": "a", "values": [NaN]}',
        '{"example_id": "a", "values": [1.0, -Infinity]}',
        '{"example_id": "a", "values": [1e999]}',
    ):
        bad.write_text('{"example_id": "z", "values": [0.0]}\n' + record + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}:2: bad vector record: "):
            load_vectors(str(bad))


def test_load_vectors_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_vectors(str(tmp_path / "absent.jsonl"))


# --- report ----------------------------------------------------------------


def test_report_per_k_and_correlation():
    points = {
        1: ([cluster([0.0, 0.0])], 0.2),
        2: ([cluster([0.0, 0.0], [2.0, 0.0])], 0.3),
        3: ([cluster([0.0], [3.0], [6.0]), cluster([0.0], [0.0], [0.0])], 0.4),
    }
    report = variability_report(points)
    assert report["per_k"]["1"] == {"mean_variability": 0.0, "arg_c_f1": 0.2}
    assert report["per_k"]["2"]["mean_variability"] == pytest.approx(1.0)
    assert report["per_k"]["3"]["mean_variability"] == pytest.approx(1.0)
    # means (0, 1, 1) against scores (0.2, 0.3, 0.4)
    assert report["correlation"] == pytest.approx(
        pearson([0.0, 1.0, 1.0], [0.2, 0.3, 0.4])
    )


def test_report_correlation_none_when_flat():
    report = variability_report({1: ([cluster([0.0])], 0.1), 2: ([cluster([1.0])], 0.9)})
    assert report["correlation"] is None


def test_report_rejects_empty_cluster_list():
    with pytest.raises(ConfigError, match="no clusters"):
        variability_report({1: ([], 0.5)})
