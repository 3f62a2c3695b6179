"""Seeded instance generators for the benchmark workloads.

The benchmark writes its own inputs, so that changes to the package's
generators or CSV writers cannot change what it measures.  Files use the
package's CSV format (header row, 1-based node ids, canonical edge order,
floats written with ``repr``), and one seed always gives the same bytes.
Every instance is connected by construction, never by rejecting draws.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

LAMBDA = 1.0

# Per workload: a tag that keeps the random streams of workloads apart, the
# number of pooled instances, the host speed kernel its times are adjusted
# by (``hostspeed.py``), and generator arguments at full and tiny size.
# The tiny sizes serve the benchmark's own tests and the untimed warm-up.
WORKLOADS = {
    "sbm-gap": {
        "tag": 101,
        "pool": {"full": 80, "tiny": 2},
        "kernel": "interpreter",
        "size": {
            "full": {"sizes": (50, 50), "p_in": 0.2, "p_out": 0.01},
            "tiny": {"sizes": (10, 10), "p_in": 0.3, "p_out": 0.05},
        },
    },
    "grid-ingest": {
        "tag": 102,
        "pool": {"full": 3, "tiny": 2},
        "kernel": "ingest",
        "size": {
            "full": {"rows": 316, "cols": 316},
            "tiny": {"rows": 20, "cols": 20},
        },
    },
    "tree-certify": {
        "tag": 103,
        "pool": {"full": 6, "tiny": 2},
        "kernel": "interpreter",
        "size": {
            "full": {"nodes": 20_000, "clusters": 50},
            "tiny": {"nodes": 300, "clusters": 5},
        },
    },
}


def write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """One row per position.  ``repr`` of a Python int or float is exactly
    what the package's writers emit for ids and values."""
    fmt = ",".join(["{!r}"] * len(columns))
    rows = map(fmt.format, *(np.asarray(c).tolist() for c in columns))
    Path(path).write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _write_graph(path: Path, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> int:
    """Write 0-based endpoint pairs as canonical 1-based (head, tail, w) rows."""
    heads = np.minimum(a, b) + 1
    tails = np.maximum(a, b) + 1
    order = np.lexsort((tails, heads))
    write_csv(path, "i,j,w", heads[order], tails[order], w[order])
    return int(heads.size)


def _write_observations(path: Path, nodes: np.ndarray, labels: np.ndarray) -> None:
    order = np.argsort(nodes)
    write_csv(path, "i,x", nodes[order] + 1, labels[order].astype(np.float64))


def sbm(
    rng: np.random.Generator,
    out: Path,
    sizes: tuple[int, ...],
    p_in: float,
    p_out: float,
    labels_per_block: int = 2,
    intra_weight: float = 1.0,
    inter_weight: float = 0.25,
) -> dict:
    """Stochastic block model; block b carries the value 1 for b = 0, else 0.

    A ring inside each block and one edge from each block to the next make
    the graph connected whatever the random draws.
    """
    n = int(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < np.where(block[i] == block[j], p_in, p_out)
    a, b = [i[keep]], [j[keep]]
    for start, size in zip(starts, sizes):
        ring = np.arange(size)
        a.append(start + ring)
        b.append(start + (ring + 1) % size)
    for k in range(len(sizes) - 1):
        a.append(starts[k] + rng.integers(sizes[k], size=1))
        b.append(starts[k + 1] + rng.integers(sizes[k + 1], size=1))
    a, b = np.concatenate(a), np.concatenate(b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    pairs = np.unique(lo * n + hi)
    lo, hi = pairs // n, pairs % n
    w = np.where(block[lo] == block[hi], intra_weight, inter_weight)
    m = _write_graph(out / "graph.csv", lo, hi, w)
    nodes = np.concatenate([
        start + rng.choice(size, size=labels_per_block, replace=False)
        for start, size in zip(starts, sizes)
    ])
    _write_observations(out / "observations.csv", nodes, (block[nodes] == 0) * 1.0)
    return {"nodes": n, "edges": m}


def grid(
    rng: np.random.Generator,
    out: Path,
    rows: int,
    cols: int,
    label_frac: float = 0.01,
    intra_weight: float = 1.0,
    boundary_weight: float = 0.25,
) -> dict:
    """Lattice cut into a left cluster (value 1) and a right cluster (value 0)
    by light edges after a random column; ``label_frac`` of each cluster is
    labeled."""
    node = np.arange(rows * cols).reshape(rows, cols)
    split = int(rng.integers(cols // 4, 3 * cols // 4))
    right_w = np.where(np.arange(cols - 1) == split, boundary_weight, intra_weight)
    a = np.concatenate([node[:, :-1].ravel(), node[:-1, :].ravel()])
    b = np.concatenate([node[:, 1:].ravel(), node[1:, :].ravel()])
    w = np.concatenate([np.tile(right_w, rows), np.full((rows - 1) * cols, intra_weight)])
    m = _write_graph(out / "graph.csv", a, b, w)
    left = (node % cols <= split).ravel()
    nodes = np.concatenate([
        rng.choice(members, size=max(1, round(label_frac * members.size)), replace=False)
        for members in (np.flatnonzero(left), np.flatnonzero(~left))
    ])
    _write_observations(out / "observations.csv", nodes, left[nodes] * 1.0)
    return {"nodes": rows * cols, "edges": m}


def tree(
    rng: np.random.Generator,
    out: Path,
    nodes: int,
    clusters: int,
    intra_weight: float = 1.0,
    light_weight: float = 0.01,
) -> dict:
    """Random tree of ``clusters`` random subtrees joined by light edges.

    Each cluster is a random recursive tree and carries one label; the
    cluster values are a permutation of 0..clusters-1, so neighbouring
    clusters differ by at least 1 and the tree certificate exists.  Node ids
    are shuffled so clusters are not contiguous id ranges.
    """
    n, k = nodes, clusters
    sizes = 1 + rng.multinomial(n - k, np.full(k, 1.0 / k))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    cluster = np.repeat(np.arange(k), sizes)
    local = np.arange(n) - starts[cluster]
    child = np.flatnonzero(local > 0)
    parent = starts[cluster[child]] + (rng.random(child.size) * local[child]).astype(np.int64)
    up = (rng.random(k - 1) * np.arange(1, k)).astype(np.int64)
    a_light = starts[1:] + (rng.random(k - 1) * sizes[1:]).astype(np.int64)
    b_light = starts[up] + (rng.random(k - 1) * sizes[up]).astype(np.int64)
    perm = rng.permutation(n)
    a = perm[np.concatenate([child, a_light])]
    b = perm[np.concatenate([parent, b_light])]
    w = np.concatenate([np.full(child.size, intra_weight), np.full(k - 1, light_weight)])
    m = _write_graph(out / "graph.csv", a, b, w)
    cluster_of = np.empty(n, dtype=np.int64)
    cluster_of[perm] = cluster
    write_csv(out / "partition.csv", "i,cluster", np.arange(1, n + 1), cluster_of + 1)
    sampled = perm[starts + (rng.random(k) * sizes).astype(np.int64)]
    values = rng.permutation(k).astype(np.float64)
    _write_observations(out / "observations.csv", sampled, values)
    return {"nodes": n, "edges": m}


GENERATORS = {"sbm-gap": sbm, "grid-ingest": grid, "tree-certify": tree}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> str:
    """Write the workload's instance pool plus a tiny warm-up instance under
    ``out`` and return the SHA-256 fingerprint of every file written."""
    spec = WORKLOADS[workload]
    make = GENERATORS[workload]
    names = [f"{i:03d}" for i in range(spec["pool"][size])]
    index = {}
    for i, name in enumerate(["warmup"] + names):
        rng = np.random.default_rng([spec["tag"], seed, i])
        target = out / name
        target.mkdir(parents=True)
        kwargs = spec["size"]["tiny" if name == "warmup" else size]
        index[name] = make(rng, target, **kwargs)
    (out / "instances.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "pool": names, "instances": index},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return fingerprint(out)


def fingerprint(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()
