from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from tvflow import cli
from tvflow.flow import construct_tree_certificate
from tvflow.graph import build_graph
from tvflow.io import (
    read_flow_csv,
    read_graph_csv,
    read_observations_csv,
    read_signal_csv,
    write_flow_csv,
    write_graph_csv,
    write_observations_csv,
    write_partition_csv,
)
from tvflow.signal import Observations, Partition, Problem
from tvflow.solver import duality_gap


def run_cli(args: list[str]) -> int:
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"  # carries a timestamp by design
    }


class TestGenerate:
    def test_chain_defaults_reproduce_reference_instance(self, tmp_path):
        out = tmp_path / "gen"
        assert run_cli(["generate", "chain", "--out-dir", str(out)]) == 0
        g = read_graph_csv(out / "graph.csv")
        assert g.node_count == 10
        assert g.edges()[4] == (5, 6, 0.25)
        obs = read_observations_csv(out / "observations.csv")
        assert obs.nodes.tolist() == [2, 7]
        assert obs.labels.tolist() == [1.0, 0.0]
        signal = read_signal_csv(out / "signal.csv")
        assert signal.tolist() == [1.0] * 5 + [0.0] * 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "chain"
        assert set(manifest["outputs"]) == {
            "graph.csv", "signal.csv", "observations.csv", "partition.csv",
        }

    def test_two_node_chain(self, tmp_path):
        out = tmp_path / "gen"
        code = run_cli([
            "generate", "chain", "--n", "2", "--split", "1",
            "--samples", "1,2", "--out-dir", str(out),
        ])
        assert code == 0
        assert read_graph_csv(out / "graph.csv").edge_count == 1

    def test_grid(self, tmp_path):
        out = tmp_path / "grid"
        assert run_cli(["generate", "grid", "--out-dir", str(out)]) == 0
        g = read_graph_csv(out / "graph.csv")
        assert g.node_count == 24
        assert g.min_degree() >= 2

    def test_sbm_disconnected_warns(self, tmp_path, capsys):
        out = tmp_path / "sbm"
        code = run_cli([
            "generate", "sbm", "--sizes", "3,3", "--p-out", "0",
            "--p-in", "1", "--out-dir", str(out),
        ])
        assert code == 0
        assert "disconnected" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert run_cli(["generate", "nonsense"]) == 64

    def test_invalid_params_exit_code(self, tmp_path):
        code = run_cli([
            "generate", "chain", "--n", "2", "--split", "5",
            "--out-dir", str(tmp_path),
        ])
        assert code == 64


class TestSolve:
    @pytest.fixture
    def instance_dir(self, tmp_path) -> Path:
        out = tmp_path / "inst"
        assert run_cli(["generate", "chain", "--out-dir", str(out)]) == 0
        return out

    def test_solve_writes_artifacts(self, tmp_path, instance_dir):
        out = tmp_path / "sol"
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            "--lambda", "1", "--iters", "1000", "--out-dir", str(out),
        ])
        assert code == 0
        primal = read_signal_csv(out / "primal.csv")
        assert np.max(np.abs(primal - np.array([0.75] * 5 + [0.25] * 5))) <= 0.02
        report = json.loads((out / "report.json").read_text())
        assert report["iters"] == 1000
        assert report["objective"] == pytest.approx(0.1875, abs=2e-3)
        assert report["certified"] is True
        assert report["stop_reason"] == "max_iters"
        assert report["primal_iterate"] == "average"

    def test_gap_mode_files_reproduce_report(self, tmp_path, instance_dir):
        # primal.csv and dual.csv are the pair the reported gap belongs to.
        out = tmp_path / "sol"
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            "--gap-tol", "1e-6", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] == "certificate"
        assert report["primal_iterate"] == "certificate"
        assert report["iters"] < 1000
        g = read_graph_csv(instance_dir / "graph.csv")
        problem = Problem(g, read_observations_csv(instance_dir / "observations.csv"), 1.0)
        x = read_signal_csv(out / "primal.csv")
        y = read_flow_csv(out / "dual.csv", g).base
        recomputed = duality_gap(problem, x, y, report["config"]["feas_tol"])
        assert recomputed.certified
        assert recomputed.primal == report["objective"]
        assert recomputed.dual == report["dual_objective"]
        assert recomputed.gap == report["gap"]
        assert 0.0 <= report["gap"] <= 1e-6

    def test_solve_with_config_json(self, tmp_path, instance_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 1.0, "max_iters": 200}))
        out = tmp_path / "sol"
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            "--config", str(config), "--out-dir", str(out),
        ])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["iters"] == 200

    @pytest.mark.parametrize("flag, value", [
        ("--gap-tol", "nan"), ("--gap-tol", "inf"), ("--feas-tol", "nan"),
    ])
    def test_non_finite_tolerance_rejected(
        self, tmp_path, instance_dir, capsys, flag, value
    ):
        out = tmp_path / "sol"
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            flag, value, "--out-dir", str(out),
        ])
        assert code == 64
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and non-negative, got {value}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("gap_tol", None, "config key 'gap_tol' must be a number, got null"),
        ("max_iters", 2.7, "max_iters must be an integer >= 1, got 2.7"),
        ("lambda", True, "config key 'lambda' must be a number, got true"),
        ("gap_tol", float("inf"), "gap_tol must be finite and non-negative, got inf"),
    ])
    def test_bad_config_value_names_file_and_key(
        self, tmp_path, instance_dir, capsys, key, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 1.0, key: value}))
        out = tmp_path / "sol"
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            "--config", str(config), "--out-dir", str(out),
        ])
        assert code == 64
        assert f"tvflow: error: {config}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_zero_rejected(self, tmp_path, instance_dir):
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(instance_dir / "observations.csv"),
            "--lambda", "0", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 64

    def test_empty_observations_rejected(self, tmp_path, instance_dir):
        empty = tmp_path / "empty.csv"
        empty.write_text("i,x\n")
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(empty), "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 64

    def test_unlabeled_component_rejected(self, tmp_path, capsys):
        (tmp_path / "graph.csv").write_text("i,j,w\n1,2,1.0\n3,4,1.0\n")
        (tmp_path / "obs.csv").write_text("i,x\n1,1.0\n2,0.0\n")
        out = tmp_path / "x"
        code = run_cli([
            "solve", "--graph", str(tmp_path / "graph.csv"),
            "--observations", str(tmp_path / "obs.csv"), "--out-dir", str(out),
        ])
        assert code == 64
        err = capsys.readouterr().err
        assert "component with nodes {3, 4} has no labeled node" in err
        assert not out.exists()

    def test_non_finite_objective_rejected(self, tmp_path, capsys):
        (tmp_path / "graph.csv").write_text("i,j,w\n1,2,1.0\n2,3,1.0\n")
        (tmp_path / "obs.csv").write_text("i,x\n1,1e300\n3,-1e300\n")
        out = tmp_path / "x"
        code = run_cli([
            "solve", "--graph", str(tmp_path / "graph.csv"),
            "--observations", str(tmp_path / "obs.csv"), "--out-dir", str(out),
        ])
        assert code == 64
        assert "primal objective is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_cites_line(self, tmp_path, instance_dir, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("i,x\n2,1.0\n7,zero\n")
        code = run_cli([
            "solve", "--graph", str(instance_dir / "graph.csv"),
            "--observations", str(bad), "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 64
        assert "bad.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("graph.csv", f"i,j,w\n1,2,1.0\n2,{2**70},1.0\n"),
        ("observations.csv", f"i,x\n2,1.0\n{2**70},0.0\n"),
    ])
    def test_id_beyond_64_bits_cites_line(
        self, tmp_path, instance_dir, capsys, name, text
    ):
        bad = tmp_path / name
        bad.write_text(text)
        inputs = {"graph.csv": instance_dir / "graph.csv",
                  "observations.csv": instance_dir / "observations.csv", name: bad}
        code = run_cli([
            "solve", "--graph", str(inputs["graph.csv"]),
            "--observations", str(inputs["observations.csv"]),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 64
        err = capsys.readouterr().err
        assert f"{name}:3: node id {2**70} does not fit in 64 bits" in err


class TestSolveThenCertify:
    """The exact finish end to end: generate, solve to a 1e-6 gap, then
    certify solve's own flow.csv and partition.csv."""

    @pytest.mark.parametrize("generate, lam", [
        (["grid", "--rows", "30", "--cols", "30", "--split-col", "15",
          "--samples-per-cluster", "4"], "0.1"),
        (["sbm", "--sizes", "50,50", "--p-in", "0.2", "--p-out", "0.01",
          "--samples-per-cluster", "2"], "0.1"),
    ], ids=["grid-30x30", "sbm-2x50"])
    def test_round_trip(self, tmp_path, generate, lam):
        inst, sol, cert = tmp_path / "inst", tmp_path / "sol", tmp_path / "cert"
        assert run_cli(["generate", *generate, "--seed", "0", "--out-dir", str(inst)]) == 0
        inputs = ["--graph", str(inst / "graph.csv"),
                  "--observations", str(inst / "observations.csv"), "--lambda", lam]
        assert run_cli([
            "solve", *inputs, "--gap-tol", "1e-6", "--iters", "20000",
            "--out-dir", str(sol),
        ]) == 0
        report = json.loads((sol / "report.json").read_text())
        assert report["stop_reason"] == "certificate"
        assert -1e-12 <= report["gap"] <= 1e-6  # never negative beyond rounding
        manifest = json.loads((sol / "manifest.json").read_text())
        assert {"flow.csv", "partition.csv"} <= set(manifest["outputs"])
        assert run_cli([
            "certify", *inputs, "--flow", str(sol / "flow.csv"),
            "--partition", str(sol / "partition.csv"), "--out-dir", str(cert),
        ]) == 0
        assert (cert / "reconstructed.csv").read_bytes() == (sol / "primal.csv").read_bytes()
        # The optimum has at least two clusters, each labeled.
        certified = json.loads((cert / "report.json").read_text())
        assert len(certified["cluster_spreads"]) >= 2
        assert None not in certified["cluster_spreads"]


class TestCertify:
    @pytest.fixture
    def experiment_dir(self, tmp_path) -> Path:
        out = tmp_path / "exp"
        assert run_cli(["experiment-chain", "--out-dir", str(out)]) == 0
        return out

    def test_valid_certificate_exits_zero(self, tmp_path, experiment_dir):
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", "1", "--out-dir", str(out),
        ])
        assert code == 0
        recon = read_signal_csv(out / "reconstructed.csv")
        assert recon.tolist() == [0.75] * 5 + [0.25] * 5
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "verified"
        assert report["verdict"] is True

    def test_wrong_lambda_exits_one(self, tmp_path, experiment_dir):
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", "2", "--out-dir", str(out),
        ])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["saturation_ok"] is False
        assert not (out / "reconstructed.csv").exists()

    def test_indeterminate_cluster_exits_two(self, tmp_path):
        # 4-cycle with both samples in one cluster: a circulation saturates
        # the two boundary edges and conserves everywhere, but the sampled
        # cluster's partner has no label, so its balance is undecidable.
        (tmp_path / "graph.csv").write_text(
            "i,j,w\n1,2,1.0\n1,4,0.5\n2,3,0.5\n3,4,1.0\n"
        )
        (tmp_path / "partition.csv").write_text(
            "i,cluster\n1,1\n2,1\n3,2\n4,2\n"
        )
        (tmp_path / "observations.csv").write_text("i,x\n1,1.0\n2,1.0\n")
        (tmp_path / "flow.csv").write_text(
            "head,tail,y\n1,2,0.5\n1,4,-0.5\n2,3,0.5\n3,4,0.5\n"
            "1,star,0.0\n2,star,0.0\n"
        )
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(tmp_path / "graph.csv"),
            "--flow", str(tmp_path / "flow.csv"),
            "--partition", str(tmp_path / "partition.csv"),
            "--observations", str(tmp_path / "observations.csv"),
            "--lambda", "1", "--out-dir", str(out),
        ])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "indeterminate"
        assert report["indeterminate_clusters"] == [2]

    def test_unreconstructable_certificate_exits_one(self, tmp_path, capsys):
        # The chain with weight 1/4 on edges {5, 6} and {6, 7}: the tree
        # certificate carries exactly the capacity of {6, 7}, which passes
        # the slack check at --tol 0 but leaves node 6 without a label, so
        # no signal is reconstructed and nothing is certified.
        edges = [(i, i + 1, 1.0) for i in range(1, 10)]
        edges[4] = (5, 6, 0.25)
        edges[5] = (6, 7, 0.25)
        g = build_graph(10, edges)
        obs = Observations.from_dict({2: 1.0, 7: 0.0})
        partition = Partition(np.repeat([0, 1], 5))
        flow = construct_tree_certificate(g, partition, obs, 1.0)
        write_graph_csv(tmp_path / "graph.csv", g)
        write_observations_csv(tmp_path / "observations.csv", obs)
        write_partition_csv(tmp_path / "partition.csv", partition)
        write_flow_csv(tmp_path / "flow.csv", g, flow)
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(tmp_path / "graph.csv"),
            "--flow", str(tmp_path / "flow.csv"),
            "--partition", str(tmp_path / "partition.csv"),
            "--observations", str(tmp_path / "observations.csv"),
            "--lambda", "1", "--tol", "0", "--out-dir", str(out),
        ])
        assert code == 1
        reason = "component [6] contains no sampled node"
        assert capsys.readouterr().out == f"certificate failed\nreason: {reason}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "failed"
        assert report["verdict"] is False
        assert report["failure_reason"] == reason
        assert not (out / "reconstructed.csv").exists()

    def test_no_interior_edge_report_is_strict_json(self, tmp_path, experiment_dir):
        # Every node its own cluster: no edge lies inside a cluster, so the
        # interior slack is undefined and reported as null.
        partition = tmp_path / "singletons.csv"
        rows = "".join(f"{i},{i}\n" for i in range(1, 11))
        partition.write_text("i,cluster\n" + rows)
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(partition),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", "1", "--out-dir", str(out),
        ])
        assert code == 1

        def reject(token):
            raise ValueError(f"non-finite number {token} in report")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["interior_slack"] is None
        assert report["strict_interior_ok"] is True

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "inf", "lambda must be positive and finite, got inf"),
        ("--tol", "nan", "tol must be finite and non-negative, got nan"),
        ("--tol", "-1", "tol must be finite and non-negative, got -1.0"),
    ])
    def test_bad_lambda_or_tol_rejected(
        self, tmp_path, experiment_dir, capsys, flag, value, message
    ):
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            flag, value, "--out-dir", str(out),
        ])
        assert code == 64
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_flow_value_cites_line(self, tmp_path, experiment_dir, capsys):
        lines = (experiment_dir / "flow.csv").read_text().splitlines()
        head, tail, _ = lines[3].split(",")
        lines[3] = f"{head},{tail},nan"
        flow = tmp_path / "flow.csv"
        flow.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(flow),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--out-dir", str(out),
        ])
        assert code == 64
        assert f"{flow}:4: flow value must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mislabelled_star_row_names_nodes(self, tmp_path, experiment_dir, capsys):
        text = (experiment_dir / "flow.csv").read_text()
        assert "\n7,star," in text
        flow = tmp_path / "flow.csv"
        flow.write_text(text.replace("\n7,star,", "\n8,star,"))
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(flow),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--out-dir", str(tmp_path / "cert"),
        ])
        assert code == 64
        err = capsys.readouterr().err
        assert "star nodes" in err
        assert "first labeled node without a star row [7]" in err
        assert "first star row at an unlabeled node [8]" in err

    def test_missing_partition_usage_error(self, tmp_path, experiment_dir):
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(tmp_path / "missing.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--out-dir", str(tmp_path / "cert"),
        ])
        assert code == 64


class TestExperimentChain:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert run_cli(["experiment-chain", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names >= {
            "dual_matches_reference",
            "primal_matches_reference",
            "certificate_verified",
            "strong_duality_at_certificate",
            "reference_objective",
            "gap_below_threshold",
        }
        stdout = capsys.readouterr().out
        assert "FAIL" not in stdout

    def test_gap_mode_checks_returned_pair(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli([
            "experiment-chain", "--gap-tol", "1e-6", "--strict", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["solver"]["stop_reason"] == "certificate"
        assert report["solver"]["gap"] <= 1e-6
        primal = read_signal_csv(out / "primal.csv")
        assert np.max(np.abs(primal - np.array([0.75] * 5 + [0.25] * 5))) <= 1e-3

    def test_figure_shaped_csvs(self, tmp_path):
        out = tmp_path / "exp"
        run_cli(["experiment-chain", "--out-dir", str(out)])
        assert read_signal_csv(out / "signal.csv").tolist() == [1.0] * 5 + [0.0] * 5
        primal = read_signal_csv(out / "primal.csv")
        assert primal.shape == (10,)
        dual_lines = (out / "chain_dual.csv").read_text().splitlines()
        assert dual_lines[0] == "i,y"
        assert len(dual_lines) == 10  # header plus one row per chain edge

    def test_small_lambda_reported_and_strict_exit(self, tmp_path):
        out1 = tmp_path / "soft"
        assert run_cli(["experiment-chain", "--lambda", "0.01", "--out-dir", str(out1)]) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert report["all_passed"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "dual_matches_reference" in failed
        assert "primal_matches_reference" in failed

        out2 = tmp_path / "strict"
        code = run_cli([
            "experiment-chain", "--lambda", "0.01", "--strict",
            "--out-dir", str(out2),
        ])
        assert code == 1

    def test_insufficient_iterations_flagged(self, tmp_path):
        out = tmp_path / "short"
        assert run_cli(["experiment-chain", "--iters", "10", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "gap_below_threshold" in failed


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli(["experiment-chain", "--out-dir", str(out)]) == 0
        assert artifact_bytes(a) == artifact_bytes(b)

    def test_sbm_generation_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli([
                "generate", "sbm", "--sizes", "4,4", "--p-in", "0.9",
                "--p-out", "0.3", "--seed", "11", "--out-dir", str(out),
            ]) == 0
        assert artifact_bytes(a) == artifact_bytes(b)
