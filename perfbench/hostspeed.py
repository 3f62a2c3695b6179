"""Host speed probe: how much slower than a reference a fixed kernel runs.

On a virtual machine with a few cores of a shared host, the host's other
tenants slow everything that runs by up to 1.7x, in phases from seconds
to minutes.  A median over a 30-second run moves with the share of slow
phases in it, so two runs of the same code can differ by more than a
regression worth catching.  The worker times a kernel between pipeline
runs, and ``run.py`` divides each pipeline time by the kernel's slowdown
around it (kernel time over its reference time), which gives the time the
run would have taken at the host speed on which the reference was
measured.

The kernels use none of the package's code, so a change to the package
cannot change them.  Each does the kind of work its workloads do, because
host phases slow kinds of work by different factors:

- ``interpreter``: a union-find and the incidence lists of 6000 random
  edges, interpreter-bound work on lists, tuples and sets that fits in
  cache, like the Python loops of ``sbm-gap`` and ``tree-certify`` and
  the CLI's start-up.
- ``ingest``: parsing 20000 CSV rows into tuples, plus in-place passes
  over a 16 MB array, like ``grid-ingest``'s CSV reading and its
  bandwidth-bound kernels at 10^5 nodes.

On a 2-vCPU Xeon VM, over 7-minute loops of one workload, 30-second
medians of adjusted times spread 0.05 on ``tree-certify`` with
``interpreter`` (0.09 with a numpy-heavy mix) and 0.06 on
``grid-ingest`` with ``ingest`` (0.09 with ``interpreter``, 0.26
unadjusted).
"""

from __future__ import annotations

import time

import numpy as np

_NODES = 6000
_EDGES = [(int(a), int(b)) for a, b in
          np.random.default_rng(5).integers(_NODES, size=(_NODES, 2)).tolist()]
_ROWS = "\n".join(f"{i},{i + 1},{x!r}" for i, x in
                  enumerate(np.random.default_rng(7).random(20_000).tolist(), start=1))
_STREAM_LEN = 2_000_000


def _union_find_and_incidence() -> None:
    parent = list(range(_NODES))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    incident: list[list[tuple[int, int]]] = [[] for _ in range(_NODES)]
    for e, (a, b) in enumerate(_EDGES):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        incident[a].append((e, 1))
        incident[b].append((e, -1))
    {find(i) for i in range(_NODES)}


def _interpreter() -> None:
    for _ in range(4):
        _union_find_and_incidence()


def _ingest() -> None:
    rows = [line.split(",") for line in _ROWS.split("\n")]
    triples = [(int(i), int(j), float(w)) for i, j, w in rows]
    np.array([w for _, _, w in triples]).sum()
    # Allocated per call, so that it never adds to the pipelines' memory.
    a = np.arange(_STREAM_LEN, dtype=np.float64)
    for _ in range(14):
        a *= 1.0000001
        a.sum()


# Per kernel: the work, and about its median time on the machine named in
# spec.json ("machine"), where each ranged over about 0.6x to 1.8x of it.
# Only ratios between runs matter; the reference fixes the scale, so that
# adjusted times read as seconds at that host speed.
KERNELS = {
    "interpreter": (_interpreter, 0.037),
    "ingest": (_ingest, 0.060),
}


def slowdown(kernel: str) -> float:
    """Wall time of one run of the kernel over its reference time."""
    work, reference_s = KERNELS[kernel]
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) / reference_s
