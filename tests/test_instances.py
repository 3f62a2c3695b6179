"""Seeded generator outputs and fixed-iteration solver outputs are pinned
byte for byte."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import make_chain
from tvflow import cli
from tvflow.instances import chain_instance, sbm_instance

INSTANCE_FILES = ("graph.csv", "signal.csv", "observations.csv", "partition.csv")

# SHA-256 over (name, bytes) of the four instance files, per command.
PINNED = {
    "chain-default": (
        ["chain"],
        "1c937c87c4a9396ca59024fb0e91af37f9d8376bac746467aaf3ec72d54cd79c",
    ),
    "chain-custom": (
        ["chain", "--n", "13", "--split", "4", "--samples", "1,9,13",
         "--coeffs", "2.5,-1", "--boundary-weight", "0.3"],
        "4e546e827ffea5805495060f317c1a37a47f6cdc544ffeaa482a1f2905c7035d",
    ),
    "grid": (
        ["grid", "--rows", "7", "--cols", "9", "--split-col", "4",
         "--samples-per-cluster", "3", "--seed", "5"],
        "13d41f73757c6b96be8a1e26f90e4403420af3b253a6b9f8b8e7f2782887efb4",
    ),
    "sbm": (
        ["sbm", "--sizes", "5,5", "--seed", "2"],
        "3f944befab62f082baeb5d59d2000f089c9d11ac153973b4da7b3476c59e6c47",
    ),
    "sbm-3-blocks": (
        ["sbm", "--sizes", "20,30,25", "--p-in", "0.3", "--p-out", "0.02",
         "--coeffs", "1,0,-1", "--samples-per-cluster", "3", "--seed", "17"],
        "923e98e548bb0e3bf80f6f21b67ff51eaabf43560bbc5ede19dc2700c7808f45",
    ),
}


# SHA-256 over (name, bytes) of primal.csv and dual.csv written by
# ``solve --gap-tol 0`` on a generated instance: the iterates must stay
# bit-identical.
SOLVE_PINNED = {
    "chain": (
        ["chain"], ["--iters", "1000"],
        "cb2be40814c10c7cd059bf7992e7377d75f2c786b67f0481422037d5a5fc26fa",
    ),
    "grid": (
        PINNED["grid"][0], ["--lambda", "0.5", "--iters", "700"],
        "c928a1a50d57d7b2b799cbdaf410ba08745a6f4cc0eabfc19424ee9042ca1a74",
    ),
    "sbm": (
        PINNED["sbm-3-blocks"][0], ["--iters", "400"],
        "563ed6812a37e641f8cbd931f8386fdd45ca109f35b5cdc32ceb8fe455266ec7",
    ),
}


def digest(out_dir, names) -> str:
    sha = hashlib.sha256()
    for name in names:
        sha.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_generate_output_pinned(case, tmp_path):
    args, expected = PINNED[case]
    assert cli.main(["generate", *args, "--out-dir", str(tmp_path)]) == 0
    assert digest(tmp_path, INSTANCE_FILES) == expected


@pytest.mark.parametrize("case", sorted(SOLVE_PINNED))
def test_solve_output_pinned(case, tmp_path):
    generate, solve, expected = SOLVE_PINNED[case]
    inst, out = tmp_path / "instance", tmp_path / "solution"
    assert cli.main(["generate", *generate, "--out-dir", str(inst)]) == 0
    assert cli.main([
        "solve", "--graph", str(inst / "graph.csv"),
        "--observations", str(inst / "observations.csv"),
        *solve, "--gap-tol", "0", "--out-dir", str(out),
    ]) == 0
    assert digest(out, ("primal.csv", "dual.csv")) == expected


def test_chain_defaults_are_the_canonical_chain():
    g, partition, signal, obs = chain_instance()
    ref_g, ref_obs, ref_partition = make_chain()
    assert g.edges() == ref_g.edges()
    assert partition.clusters == ref_partition.clusters
    assert np.array_equal(obs.nodes, ref_obs.nodes)
    assert np.array_equal(obs.labels, ref_obs.labels)
    assert signal.tolist() == [1.0] * 5 + [0.0] * 5


def test_sbm_draws_match_one_draw_per_pair():
    # Reference: one rng.random() per node pair i < j in lexicographic
    # order, then the per-cluster label sampling.
    sizes, p_in, p_out = [6, 5, 4], 0.6, 0.2
    rng = np.random.default_rng(9)
    g, partition, _, obs = sbm_instance(
        sizes, p_in, p_out, 1.0, 0.25, 2, [1, 0, -1], rng
    )
    ref_rng = np.random.default_rng(9)
    block = np.repeat(np.arange(len(sizes)), sizes)
    edges = []
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            same = block[i] == block[j]
            if ref_rng.random() < (p_in if same else p_out):
                edges.append((i + 1, j + 1, 1.0 if same else 0.25))
    sampled = []
    for cluster in partition.clusters:
        sampled += ref_rng.choice(sorted(cluster), size=2, replace=False).tolist()
    assert g.edges() == edges
    assert obs.nodes.tolist() == sorted(sampled)
    assert rng.random() == ref_rng.random()  # same generator state afterwards
