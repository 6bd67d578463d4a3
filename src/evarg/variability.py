"""In-context example variability and its correlation with scores.

Variability of a cluster of example sentence vectors is the mean
Euclidean distance from the cluster mean. Vectors come precomputed from
a newline-delimited JSON file (one record per example); producing them
is out of scope here. The clusters and scores come from run reports, each
verified by ``load_report``: a report's clusters are the distinct sets of
example ids its instances were shown, per event type, and its point is
its ``config.k`` and its micro Arg-C F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .files import ConfigError, read_jsonl, short_repr, string_field
from .harness import load_report


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


def _cluster(
    event_type: str, ids: tuple[str, ...], vectors: dict[str, tuple[float, ...]]
) -> VectorCluster:
    missing = [i for i in ids if i not in vectors]
    if missing:
        raise ConfigError(
            f"vector file lacks ids {short_repr(missing)} for {short_repr(event_type)}"
        )
    return VectorCluster(event_type, tuple(vectors[i] for i in ids))


def load_points(
    paths: list[str], vectors: dict[str, tuple[float, ...]]
) -> dict[int, tuple[list[VectorCluster], float]]:
    """``{k: (clusters, micro Arg-C F1)}`` of the reports at ``paths``, each verified.

    The reports must agree on every config key but ``k``, and no two may
    share a ``k``; every example id they show must have a vector in ``vectors``.
    """
    points: dict[int, tuple[list[VectorCluster], float]] = {}
    path_of: dict[int, str] = {}
    first: dict | None = None  # the config of the report at paths[0]
    for path in paths:
        report = load_report(path)
        config = report["config"]
        first = first or config
        for key in sorted(config.keys() - {"k"}):
            if config[key] != first[key]:
                raise ConfigError(
                    f"reports {paths[0]} and {path} differ in {key}: "
                    f"{short_repr(first[key])} vs {short_repr(config[key])}"
                )
        k = config["k"]
        if k in path_of:
            raise ConfigError(f"reports {path_of[k]} and {path} both have k {short_repr(k)}")
        path_of[k] = path
        shown = {(e["event_type"], tuple(sorted(e["example_ids"]))) for e in report["instances"]}
        clusters = [_cluster(t, ids, vectors) for t, ids in sorted(shown) if ids]
        points[k] = clusters, report["score"]["micro"]["arg_c"]["f1"]
    return points


def variability_report(points: dict[int, tuple[list[VectorCluster], float]]) -> dict:
    """Mean variability per k plus its Pearson correlation with Arg-C F1."""
    per_k = {}
    means: list[float] = []
    scores: list[float] = []
    for k in sorted(points):
        clusters, arg_c_f1 = points[k]
        if not clusters:
            raise ConfigError(f"no clusters for k={short_repr(k)}: its report shows no examples")
        mean = sum(variability(c) for c in clusters) / len(clusters)
        per_k[str(k)] = {"mean_variability": mean, "arg_c_f1": arg_c_f1}
        means.append(mean)
        scores.append(arg_c_f1)
    return {"per_k": per_k, "correlation": pearson(means, scores)}
