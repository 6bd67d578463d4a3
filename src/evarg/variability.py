"""In-context example variability and its correlation with scores.

Variability of a cluster of example sentence vectors is the mean
Euclidean distance from the cluster mean. Vectors come precomputed from
a newline-delimited JSON file (one record per example); producing them
is out of scope here. A YAML grid file names, per k, the example ids
shown for each event type and the Arg-C F1 that k scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .files import ConfigError, read_jsonl, read_yaml, short_repr, string_field


@dataclass(frozen=True)
class VectorCluster:
    event_type: str
    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ConfigError(f"empty vector cluster for {short_repr(self.event_type)}")
        dims = {len(v) for v in self.vectors}
        if len(dims) != 1:
            raise ConfigError(
                f"dimension mismatch in cluster {short_repr(self.event_type)}: {sorted(dims)}"
            )


def variability(cluster: VectorCluster) -> float:
    """Mean Euclidean distance of the cluster's vectors from their mean."""
    n = len(cluster.vectors)
    centroid = [math.fsum(column) / n for column in zip(*cluster.vectors)]
    return math.fsum(math.dist(v, centroid) for v in cluster.vectors) / n


def pearson(xs: list[float], ys: list[float]) -> float | None:
    """Pearson r in ``numpy.corrcoef``'s order, or None when undefined (short or constant series).

    ``math.fsum`` rounds the same on every Python; ``sum`` compensates from 3.12 on.
    """
    if len(xs) != len(ys):
        raise ValueError("series length mismatch")
    n = len(xs)
    if n < 2 or len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx, dy = [x - mx for x in xs], [y - my for y in ys]
    scale = 1 / (n - 1)
    sx = math.sqrt(math.fsum(a * a for a in dx) * scale)
    sy = math.sqrt(math.fsum(b * b for b in dy) * scale)
    if not sx or not sy:  # spreads so small that their squares underflow
        return None
    cov = math.fsum(a * b for a, b in zip(dx, dy)) * scale
    return max(-1.0, min(1.0, cov / sx / sy))


def _finite(value) -> float:
    """``value``, an int or float but not a bool, as a finite float (or ``OverflowError``)."""
    if type(value) not in (int, float):
        raise TypeError(f"{short_repr(value)} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{short_repr(value)} is not finite")
    return number


def load_vectors(path: str) -> dict[str, tuple[float, ...]]:
    """Read {example_id: str, values: [finite int or float]} records, all of one dimension."""
    vectors: dict[str, tuple[float, ...]] = {}

    def add(rec: dict) -> None:
        example_id, raw = string_field(rec, "example_id"), rec["values"]
        if not isinstance(raw, list):
            raise TypeError(f"values must be a list of numbers, not {short_repr(raw)}")
        values = tuple(map(_finite, raw))
        if not values:
            raise ValueError("empty vector")
        dim = len(next(iter(vectors.values()), values))
        if len(values) != dim:
            raise ValueError(f"dimension {len(values)} != {dim}")
        if example_id in vectors:
            raise ValueError(f"duplicate id {short_repr(example_id)}")
        vectors[example_id] = values

    read_jsonl(path, "vector", add)
    return vectors


def _cluster(event_type: str, ids: list, vectors: dict[str, tuple[float, ...]]) -> VectorCluster:
    if not isinstance(ids, list):  # a string would be read one character at a time
        raise TypeError(f"ids for {short_repr(event_type)} are not a list: {short_repr(ids)}")
    missing = [i for i in ids if i not in vectors]
    if missing:
        raise ConfigError(
            f"vector file lacks ids {short_repr(missing)} for {short_repr(event_type)}"
        )
    return VectorCluster(event_type, tuple(vectors[i] for i in ids))


def _per_k(table: dict, value) -> dict:
    """``{k: value(entry)}`` for a grid table keyed by k.

    A k key is an int or a string of digits; a bool or a float is refused
    rather than truncated, and so is a second key naming the same k.
    """
    per_k = {}
    for key, entry in table.items():
        if not (type(key) is int or (isinstance(key, str) and key.isascii() and key.isdigit())):
            raise ValueError(f"k must be an integer, not {short_repr(key)}")
        if int(key) in per_k:
            raise ValueError(f"two keys name k {int(key)}")
        per_k[int(key)] = value(entry)
    return per_k


def load_grid(
    path: str, vectors: dict[str, tuple[float, ...]]
) -> tuple[dict[int, list[VectorCluster]], dict[int, float]]:
    """Read a grid file into ``variability_report``'s two arguments.

    The file maps ``clusters`` to {k: {event type: [example id]}} and
    ``arg_c_f1`` to {k: finite F1}; every id must have a vector in ``vectors``.
    """
    grid = read_yaml(path, "grid")
    try:
        clusters_per_k = _per_k(
            grid["clusters"],
            lambda by_type: [_cluster(t, ids, vectors) for t, ids in sorted(by_type.items())],
        )
        arg_c_per_k = _per_k(grid["arg_c_f1"], _finite)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"grid file {path} is malformed: {exc!r}") from exc
    return clusters_per_k, arg_c_per_k


def variability_report(
    clusters_per_k: dict[int, list[VectorCluster]],
    arg_c_per_k: dict[int, float],
) -> dict:
    """Mean variability per k plus its Pearson correlation with Arg-C F1."""
    if set(clusters_per_k) != set(arg_c_per_k):
        raise ConfigError(
            f"k grids differ: {sorted(clusters_per_k)} vs {sorted(arg_c_per_k)}"
        )
    per_k = {}
    means: list[float] = []
    scores: list[float] = []
    for k in sorted(clusters_per_k):
        clusters = clusters_per_k[k]
        if not clusters:
            raise ConfigError(f"no clusters for k={k}")
        mean = sum(variability(c) for c in clusters) / len(clusters)
        per_k[str(k)] = {"mean_variability": mean, "arg_c_f1": arg_c_per_k[k]}
        means.append(mean)
        scores.append(arg_c_per_k[k])
    return {"per_k": per_k, "correlation": pearson(means, scores)}
