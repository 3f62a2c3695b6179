from __future__ import annotations

import hashlib
import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import edge_triples
from tvflow import cli
from tvflow.flow import construct_tree_certificate
from tvflow.graph import build_graph
from tvflow.instances import chain_instance, grid_instance, sbm_instance
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
        assert edge_triples(g)[4] == (5, 6, 0.25)
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
        assert g.degrees.min() >= 2

    @pytest.mark.parametrize("sizes, warning", [
        # Two cliques with a label each: disconnected, yet solve certifies it.
        ("3,3", ""),
        # Node 4 has no edge, so graph.csv loses it.
        ("3,1", "warning: solve will refuse this instance: isolated nodes [4]:"
                " the solver needs degree >= 1\n"),
    ], ids=["3,3", "3,1"])
    def test_sbm_warns_exactly_when_solve_refuses(self, tmp_path, capsys, sizes, warning):
        out = tmp_path / "sbm"
        code = run_cli([
            "generate", "sbm", "--sizes", sizes, "--p-out", "0",
            "--p-in", "1", "--out-dir", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().err == warning
        code = run_cli([
            "solve", "--graph", str(out / "graph.csv"),
            "--observations", str(out / "observations.csv"),
            "--gap-tol", "1e-6", "--out-dir", str(tmp_path / "sol"),
        ])
        assert code == (64 if warning else 0)

    def test_labeled_node_without_edges_is_a_node_of_the_graph(self, tmp_path, capsys):
        # graph.csv ends at node 3; observations.csv labels node 4 too.
        out = tmp_path / "sbm"
        assert run_cli([
            "generate", "sbm", "--sizes", "3,1", "--p-out", "0",
            "--p-in", "1", "--out-dir", str(out),
        ]) == 0
        capsys.readouterr()
        files = ["--graph", str(out / "graph.csv"),
                 "--observations", str(out / "observations.csv")]
        assert run_cli(["solve", *files, "--out-dir", str(tmp_path / "sol")]) == 64
        assert capsys.readouterr().err == (
            "tvflow: error: isolated nodes [4]: the solver needs degree >= 1\n"
        )
        # certify reads the same four nodes: the zero flow, with node 4 its
        # own cluster, is the certificate.
        flow = tmp_path / "flow.csv"
        flow.write_text(
            "head,tail,y\n1,2,0.0\n1,3,0.0\n2,3,0.0\n2,star,0.0\n4,star,0.0\n"
        )
        code = run_cli([
            "certify", *files, "--flow", str(flow),
            "--partition", str(out / "partition.csv"),
            "--out-dir", str(tmp_path / "cert"),
        ])
        assert code == 0
        assert read_signal_csv(tmp_path / "cert" / "reconstructed.csv").tolist() == [
            1.0, 1.0, 1.0, 0.0
        ]

    def test_usage_error_exit_code(self):
        assert run_cli(["generate", "nonsense"]) == 64

    @pytest.mark.parametrize("kind, make", [
        ("chain", chain_instance), ("grid", grid_instance), ("sbm", sbm_instance),
    ])
    def test_flags_mirror_generator_signature(self, kind, make):
        # Every flag but --out-dir is a parameter of the generator, rng as
        # --seed, and parsing no flag gives the signature's defaults.
        params = inspect.signature(make).parameters
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        gen = next(a for a in sub.choices["generate"]._actions if a.dest == "kind")
        flags = {
            option for action in gen.choices[kind]._actions
            for option in action.option_strings
        } - {"-h", "--help", "--out-dir"}
        assert flags == {
            "--seed" if name == "rng" else "--" + name.replace("_", "-")
            for name in params
        }
        args = cli._build_parser().parse_args(["generate", kind])
        for name, param in params.items():
            if name == "rng":
                assert args.seed == 0
            else:
                default = param.default
                want = list(default) if isinstance(default, tuple) else default
                assert getattr(args, name) == want
                assert type(getattr(args, name)) is type(want)

    def test_chain_takes_no_seed(self, tmp_path):
        out = tmp_path / "gen"
        assert run_cli(["generate", "chain", "--seed", "1", "--out-dir", str(out)]) == 64
        assert run_cli(["generate", "chain", "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

    def test_list_flag_parse_error(self, capsys):
        assert run_cli(["generate", "sbm", "--sizes", "5,x"]) == 64
        assert "must be a comma-separated list of integers: '5,x'" in (
            capsys.readouterr().err
        )

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

    def test_manifest_inputs_list_config_when_given(self, tmp_path, instance_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda": 1.0, "max_iters": 20}))
        inputs = ["--graph", str(instance_dir / "graph.csv"),
                  "--observations", str(instance_dir / "observations.csv")]
        with_config, without = tmp_path / "with", tmp_path / "without"
        assert run_cli([
            "solve", *inputs, "--config", str(config), "--out-dir", str(with_config),
        ]) == 0
        assert run_cli(["solve", *inputs, "--out-dir", str(without)]) == 0
        manifest = json.loads((with_config / "manifest.json").read_text())
        assert manifest["inputs"] == {
            "graph": str(instance_dir / "graph.csv"),
            "observations": str(instance_dir / "observations.csv"),
            "config": str(config),
        }
        text = (without / "manifest.json").read_text()
        assert set(json.loads(text)["inputs"]) == {"graph", "observations"}
        assert "None" not in text

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


    @pytest.mark.parametrize("gap_tol, code", [("1e-3", 64), ("0", 0)])
    def test_gap_mode_feas_tol_below_half_the_smallest_capacity(
        self, tmp_path, capsys, gap_tol, code
    ):
        # Gap mode verifies certificates at feas_tol, so it takes the
        # certificate's bound; fixed mode only checks feasibility with it.
        (tmp_path / "graph.csv").write_text("i,j,w\n1,2,1.0\n2,3,1.0\n")
        (tmp_path / "obs.csv").write_text("i,x\n1,0.0\n2,1.0\n3,0.0\n")
        out = tmp_path / "sol"
        assert run_cli([
            "solve", "--graph", str(tmp_path / "graph.csv"),
            "--observations", str(tmp_path / "obs.csv"), "--lambda", "1",
            "--gap-tol", gap_tol, "--feas-tol", "0.5", "--out-dir", str(out),
        ]) == code
        if code == 64:
            assert (
                "feas_tol must be below half the smallest capacity lambda * min w,"
                " 0.5, got 0.5"
            ) in capsys.readouterr().err
            assert not out.exists()

    def test_stray_huge_node_id_exits_64(self, tmp_path, capsys):
        # Node count 2^62: an array per node would need exabytes.
        huge = 2**62
        (tmp_path / "graph.csv").write_text(f"i,j,w\n1,{huge},1.0\n")
        (tmp_path / "obs.csv").write_text("i,x\n1,0.0\n")
        (tmp_path / "flow.csv").write_text(f"head,tail,y\n1,{huge},0.0\n1,star,0.0\n")
        (tmp_path / "partition.csv").write_text("i,cluster\n1,1\n2,1\n")
        files = ["--graph", str(tmp_path / "graph.csv"),
                 "--observations", str(tmp_path / "obs.csv")]
        for argv, message in (
            (["solve", *files], "isolated nodes [2, 3, 4, 5, 6, ...]"),
            (["solve", *files, "--gap-tol", "1e-3"], "isolated nodes [2, 3, 4, 5, 6, ...]"),
            (["certify", *files, "--flow", str(tmp_path / "flow.csv"),
              "--partition", str(tmp_path / "partition.csv")],
             f"{tmp_path / 'partition.csv'}: partition covers 2 nodes, graph has {huge}"),
        ):
            assert run_cli([*argv, "--out-dir", str(tmp_path / "out")]) == 64
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see the
    values or defaults of an earlier one."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_solve_after_gap_mode_and_usage_error_uses_defaults(self, tmp_path):
        inst = tmp_path / "inst"
        assert run_cli(["generate", "chain", "--out-dir", str(inst)]) == 0
        inputs = ["--graph", str(inst / "graph.csv"),
                  "--observations", str(inst / "observations.csv")]
        gap = tmp_path / "gap"
        assert run_cli(["solve", *inputs, "--gap-tol", "1e-3", "--out-dir", str(gap)]) == 0
        assert json.loads((gap / "report.json").read_text())["config"]["gap_tol"] == 1e-3
        assert run_cli(["solve", *inputs, "--gap-tol", "x"]) == 64
        fixed = tmp_path / "fixed"
        assert run_cli(["solve", *inputs, "--out-dir", str(fixed)]) == 0
        report = json.loads((fixed / "report.json").read_text())
        assert report["config"]["gap_tol"] == 0
        assert report["stop_reason"] == "max_iters"
        assert report["iters"] == 1000

    def test_generate_kinds_keep_their_own_defaults(self, tmp_path):
        def config(kind: str, *flags: str) -> dict:
            out = tmp_path / f"{kind}{len(flags)}"
            assert run_cli(["generate", kind, *flags, "--out-dir", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["config"]

        chain_defaults = {
            "kind": "chain", "n": 10, "split": 5, "intra_weight": 1.0,
            "boundary_weight": 0.25, "samples": [2, 7], "coeffs": [1.0, 0.0],
        }
        grid_defaults = {
            "kind": "grid", "rows": 4, "cols": 6, "split_col": 3,
            "intra_weight": 1.0, "boundary_weight": 0.25,
            "samples_per_cluster": 2, "coeffs": [1.0, 0.0],
        }
        sbm_defaults = {
            "kind": "sbm", "sizes": [5, 5], "p_in": 0.7, "p_out": 0.1,
            "intra_weight": 1.0, "inter_weight": 0.25,
            "samples_per_cluster": 1, "coeffs": [1.0, 0.0],
        }
        assert config("chain") == chain_defaults
        assert config("grid") == grid_defaults
        assert config("sbm") == sbm_defaults
        assert config("chain", "--samples", "1,9", "--n", "12")["samples"] == [1, 9]
        assert config("grid", "--rows", "5", "--coeffs", "2,3")["coeffs"] == [2.0, 3.0]
        assert config("sbm", "--sizes", "3,4")["sizes"] == [3, 4]
        assert config("chain") == chain_defaults
        assert config("grid") == grid_defaults
        assert config("sbm") == sbm_defaults

    def test_certificate_stop_writes_dual_as_flow_without_star_rows(
        self, tmp_path
    ):
        inst, out = tmp_path / "inst", tmp_path / "sol"
        assert run_cli(["generate", "chain", "--out-dir", str(inst)]) == 0
        assert run_cli([
            "solve", "--graph", str(inst / "graph.csv"),
            "--observations", str(inst / "observations.csv"),
            "--gap-tol", "1e-6", "--out-dir", str(out),
        ]) == 0
        assert json.loads((out / "report.json").read_text())["stop_reason"] == (
            "certificate"
        )
        flow_lines = (out / "flow.csv").read_bytes().splitlines(keepends=True)
        base = [line for line in flow_lines if b",star," not in line]
        assert len(flow_lines) - len(base) == 2  # one star row per label
        assert (out / "dual.csv").read_bytes() == b"".join(base)


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

    def test_partition_short_of_the_graph_names_its_file(
        self, tmp_path, experiment_dir, capsys
    ):
        lines = (experiment_dir / "partition.csv").read_text().splitlines(keepends=True)
        partition = tmp_path / "partition.csv"
        partition.write_text("".join(lines[:-1]))  # nodes 1 to 9 of 10
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(partition),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", "1", "--out-dir", str(out),
        ])
        assert code == 64
        err = capsys.readouterr().err
        assert f"{partition}: partition covers 9 nodes, graph has 10" in err
        assert not out.exists()

    def test_star_row_id_beyond_64_bits_names_its_line(
        self, tmp_path, experiment_dir, capsys
    ):
        flow = tmp_path / "flow.csv"
        lines = (experiment_dir / "flow.csv").read_text().splitlines(keepends=True)
        flow.write_text("".join(lines) + f"{2**64 + 1},star,0.0\n")
        out = tmp_path / "cert"
        code = run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(flow),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", "1", "--out-dir", str(out),
        ])
        assert code == 64
        err = capsys.readouterr().err
        assert f"{flow}:{len(lines) + 1}: head id {2**64 + 1} does not fit in 64 bits" in err
        assert not out.exists()

    @pytest.mark.parametrize("lam, status", [("1", "verified"), ("2", "failed")])
    def test_signal_only_in_reconstructed_csv(
        self, tmp_path, experiment_dir, lam, status
    ):
        out = tmp_path / "cert"
        run_cli([
            "certify",
            "--graph", str(experiment_dir / "graph.csv"),
            "--flow", str(experiment_dir / "flow.csv"),
            "--partition", str(experiment_dir / "partition.csv"),
            "--observations", str(experiment_dir / "observations.csv"),
            "--lambda", lam, "--out-dir", str(out),
        ])
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == status
        assert "reconstructed" not in report
        assert (out / "reconstructed.csv").exists() == (status == "verified")
        chain = json.loads((experiment_dir / "report.json").read_text())
        assert "reconstructed" not in chain["certificate"]

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

    def test_tight_interior_edge_certifies_at_tol_zero(self, tmp_path, capsys):
        # The chain with weight 1/4 on edges {5, 6} and {6, 7}: the tree
        # certificate carries exactly the capacity of {6, 7}, which passes
        # the slack check at --tol 0 and cuts node 6 off from every label.
        # Node 6 takes its cluster's value and the certificate verifies; at
        # the default --tol the slack check fails.
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
        inputs = [
            f"--{name}={tmp_path / name}.csv"
            for name in ("graph", "flow", "partition", "observations")
        ]
        out = tmp_path / "cert"
        code = run_cli([
            "certify", *inputs, "--lambda", "1", "--tol", "0", "--out-dir", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out == "certificate verified\n"
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "verified"
        assert report["interior_slack"] == 0.0
        signal = read_signal_csv(out / "reconstructed.csv")
        assert signal.tolist() == [0.75] * 5 + [0.25] * 5

        default = tmp_path / "default"
        code = run_cli(["certify", *inputs, "--lambda", "1", "--out-dir", str(default)])
        assert code == 1
        reason = "an interior edge has no capacity slack"
        assert capsys.readouterr().out == f"certificate failed\nreason: {reason}\n"
        assert not (default / "reconstructed.csv").exists()

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

    @pytest.mark.parametrize(
        "tol, code", [("2", 64), ("1", 64), ("0.5", 64), ("0.4", 1)]
    )
    def test_tol_below_half_the_smallest_capacity(self, tmp_path, capsys, tol, code):
        # Path 1-2-3 labelled 0, 1, 0, singleton clusters, zero flow, lambda
        # 1: the signal 0, 1, 0 has objective 2 against the optimum's 1/3,
        # and only a tol of at least the capacity 1 makes zero flow pass as
        # saturated.
        (tmp_path / "graph.csv").write_text("i,j,w\n1,2,1.0\n2,3,1.0\n")
        (tmp_path / "partition.csv").write_text("i,cluster\n1,1\n2,2\n3,3\n")
        (tmp_path / "observations.csv").write_text("i,x\n1,0.0\n2,1.0\n3,0.0\n")
        (tmp_path / "flow.csv").write_text(
            "head,tail,y\n1,2,0.0\n2,3,0.0\n1,star,0.0\n2,star,0.0\n3,star,0.0\n"
        )
        out = tmp_path / "cert"
        assert run_cli([
            "certify",
            "--graph", str(tmp_path / "graph.csv"),
            "--flow", str(tmp_path / "flow.csv"),
            "--partition", str(tmp_path / "partition.csv"),
            "--observations", str(tmp_path / "observations.csv"),
            "--lambda", "1", "--tol", tol, "--out-dir", str(out),
        ]) == code
        captured = capsys.readouterr()
        if code == 64:
            assert (
                "tol must be below half the smallest capacity lambda * min w,"
                f" 0.5, got {float(tol)}"
            ) in captured.err
            assert not out.exists()
        else:
            assert captured.out.startswith("certificate failed\n")
            assert not (out / "reconstructed.csv").exists()


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
        # CSVs are written as bytes: "\n" ends every line, on every platform.
        for path in out.glob("*.csv"):
            assert b"\r" not in path.read_bytes(), path.name

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


_CHAIN_GRAPH = "i,j,w\n" + "".join(
    f"{i},{i + 1},{0.25 if i == 5 else 1.0}\n" for i in range(1, 10)
)
_CHAIN_FLOW = "head,tail,y\n" + "".join(
    f"{i},{i + 1},{0.25 if 2 <= i <= 6 else 0.0}\n" for i in range(1, 10)
) + "2,star,0.25\n7,star,-0.25\n"
_CHAIN_INPUTS = {
    "graph.csv": _CHAIN_GRAPH,
    "partition.csv": "i,cluster\n" + "".join(
        f"{i},{1 if i <= 5 else 2}\n" for i in range(1, 11)
    ),
    "observations.csv": "i,x\n2,1.0\n7,0.0\n",
    "flow.csv": _CHAIN_FLOW,
}
# The chain with weight 1/4 on {6, 7} too: the certificate flow carries
# exactly that edge's capacity, so it has no slack at the default tol and
# cuts node 6 off from every label at tol 0.
_TIGHT_CHAIN_INPUTS = {
    **_CHAIN_INPUTS,
    "graph.csv": _CHAIN_GRAPH.replace("6,7,1.0", "6,7,0.25"),
}

# certify's inputs, flags, exit code and failure_reason per case, with the
# SHA-256 of report.json and reconstructed.csv, file by file in name order.
_CERTIFY_CASES = {
    "verified": (
        _CHAIN_INPUTS, ["--lambda", "1"], 0, None,
        "c2c161759114e8b93624f7dcdf63d45432a04bf728422b91b8e4a58cdc27f47d",
    ),
    # Node 6 is cut off from every label at --tol 0 and takes its cluster's value.
    "verified_tight": (
        _TIGHT_CHAIN_INPUTS, ["--lambda", "1", "--tol", "0"], 0, None,
        "d0068db66998a08a43e4f040f5e3c0ea34f268956709ec28e2f8694a02482f3e",
    ),
    "conservation": (
        {**_CHAIN_INPUTS, "flow.csv": _CHAIN_FLOW.replace("2,star,0.25", "2,star,0.3")},
        ["--lambda", "1"], 1, "conservation or capacity violated",
        "4cd5ae9593f92ec526b0853eb094d23e27099d1e2d7a763b5991ce0043f37c92",
    ),
    "saturation": (
        _CHAIN_INPUTS, ["--lambda", "2"], 1, "a boundary edge is not saturated",
        "3e75ec1bf5b260e785e7d3c226609d92a4971692dfed337558de9b63463f99f2",
    ),
    "interior_slack": (
        _TIGHT_CHAIN_INPUTS, ["--lambda", "1"], 1,
        "an interior edge has no capacity slack",
        "075cbde852c035b39fa439ca623673fc41d0a703e8ef82c2644022d63f120404",
    ),
    "balance": (
        {
            "graph.csv": "i,j,w\n1,2,1.0\n2,3,1.0\n",
            "partition.csv": "i,cluster\n1,1\n2,1\n3,1\n",
            "observations.csv": "i,x\n1,0.0\n2,1.0\n3,0.0\n",
            "flow.csv": "head,tail,y\n1,2,0.0\n2,3,0.0\n"
            "1,star,0.0\n2,star,0.0\n3,star,0.0\n",
        },
        ["--lambda", "1"], 1, "cluster balances disagree",
        "970d199e1af034716aaf0c50979b11b600d45bc33777a3d038110a989257e011",
    ),
    # One edge inside one cluster, zero flow, star values 0.075 and -0.075:
    # label minus star agrees to within 0.1, label minus divergence does not.
    "reconstruction": (
        {
            "graph.csv": "i,j,w\n1,2,1.0\n",
            "partition.csv": "i,cluster\n1,1\n2,1\n",
            "observations.csv": "i,x\n1,0.15\n2,0.0\n",
            "flow.csv": "head,tail,y\n1,2,0.0\n1,star,0.075\n2,star,-0.075\n",
        },
        ["--lambda", "1", "--tol", "0.1"], 1,
        "sampled nodes 1 and 2 give inconsistent values 0.15 vs 0",
        "aa259c04e681e8d63b72a026196efb0774f980cd9efb08e28df8984c0ed647f5",
    ),
    # Saturated from node 2 to node 1, against the jump of the signal 2, -1.
    "orientation": (
        {
            "graph.csv": "i,j,w\n1,2,1.0\n",
            "partition.csv": "i,cluster\n1,1\n2,2\n",
            "observations.csv": "i,x\n1,1.0\n2,0.0\n",
            "flow.csv": "head,tail,y\n1,2,-1.0\n1,star,-1.0\n2,star,1.0\n",
        },
        ["--lambda", "1"], 1,
        "a saturated edge carries flow against the reconstructed jump",
        "03e36b973170e3a15543eeb107bff48118625912a5fc465cce03eda2884cdda4",
    ),
    # 4-cycle with both labels in cluster 1 (see test_indeterminate_cluster_exits_two).
    "indeterminate": (
        {
            "graph.csv": "i,j,w\n1,2,1.0\n1,4,0.5\n2,3,0.5\n3,4,1.0\n",
            "partition.csv": "i,cluster\n1,1\n2,1\n3,2\n4,2\n",
            "observations.csv": "i,x\n1,1.0\n2,1.0\n",
            "flow.csv": "head,tail,y\n1,2,0.5\n1,4,-0.5\n2,3,0.5\n3,4,0.5\n"
            "1,star,0.0\n2,star,0.0\n",
        },
        ["--lambda", "1"], 2, None,
        "dc5a3b5a278c2c1d0105c6c2d9ff6988142dbf670d318f5d82c66382fec1e6d9",
    ),
}


class TestCertifyPinnedBytes:
    """certify writes report.json (and reconstructed.csv when verified)
    byte for byte as pinned, for two verified certificates, each reachable
    failure_reason and an indeterminate one."""

    @pytest.mark.parametrize("case", list(_CERTIFY_CASES))
    def test_outputs_match_pinned_digest(self, tmp_path, case):
        inputs, flags, code, reason, digest = _CERTIFY_CASES[case]
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "cert"
        assert run_cli([
            "certify",
            *(f"--{name[:-4]}={tmp_path / name}" for name in inputs),
            *flags, "--out-dir", str(out),
        ]) == code
        outputs = artifact_bytes(out)
        report = json.loads(outputs["report.json"])
        assert report["status"] == ["verified", "failed", "indeterminate"][code]
        assert report["failure_reason"] == reason
        assert ("reconstructed.csv" in outputs) == (code == 0)
        sha = hashlib.sha256()
        for name, data in outputs.items():
            sha.update(f"{name}\n{len(data)}\n".encode())
            sha.update(data)
        assert sha.hexdigest() == digest


def readme_commands() -> list[str]:
    """Every ``tvflow`` command in README.md's code blocks, with its
    backslash continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    joined = "\n".join(blocks).replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("tvflow ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 7
    for command in commands:
        args = cli._build_parser().parse_args(shlex.split(command)[1:])
        assert callable(args.func), command


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Run in order, each command reads what the ones before it wrote; every
    # one exits 0, as the README documents, and certify verifies.
    monkeypatch.chdir(tmp_path)
    for command in readme_commands():
        assert run_cli(shlex.split(command)[1:]) == 0, command
    assert capsys.readouterr().out.endswith("certificate verified\n")
