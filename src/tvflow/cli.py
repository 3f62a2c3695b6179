"""Command-line front end.

Subcommands: ``generate`` (chain / grid / sbm instances), ``solve``,
``certify`` and ``experiment-chain`` (the end-to-end chain reproduction
with its threshold checks).  All artifacts are CSV with headers, plus
JSON reports; identical commands and seeds produce byte-identical CSVs.
Each run also writes a manifest.json recording command, inputs, config,
outputs, seed and version (the manifest carries a timestamp and is the
one output excluded from the byte-determinism guarantee).

Exit codes: 0 success/verified, 1 failed check, 2 indeterminate
certificate, 64 usage or input errors.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .flow import Flow, construct_tree_certificate, verify_certificate
from .graph import EmpiricalGraph, components
from .instances import (
    CHAIN_REF_DUAL,
    CHAIN_REF_PRIMAL,
    chain_checks,
    chain_instance,
    grid_instance,
    sbm_instance,
)
from .io import (
    read_flow_csv,
    read_graph_csv,
    read_json,
    read_observations_csv,
    read_partition_csv,
    write_flow_csv,
    write_graph_csv,
    write_json,
    write_observations_csv,
    write_partition_csv,
    write_signal_csv,
)
from .signal import Observations, Partition, Problem
from .solver import SolverConfig, SolverResult, run

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, what: str, kind: type = float) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{what} must be a comma-separated list of {noun}: {text!r}")


def _write_manifest(
    args: argparse.Namespace, config: dict[str, Any], outputs: list[str]
) -> None:
    inputs = {
        name: str(getattr(args, name))
        for name in ("graph", "flow", "partition", "observations")
        if hasattr(args, name)
    }
    write_json(
        args.out_dir / "manifest.json",
        {
            "command": list(args.argv),
            "inputs": inputs,
            "config": config,
            "outputs": outputs,
            "seed": getattr(args, "seed", None),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
        },
    )


def _write_instance(
    out_dir: Path,
    g: EmpiricalGraph,
    partition: Partition,
    signal: np.ndarray,
    obs: Observations,
) -> list[str]:
    write_graph_csv(out_dir / "graph.csv", g)
    write_signal_csv(out_dir / "signal.csv", signal)
    write_observations_csv(out_dir / "observations.csv", obs)
    write_partition_csv(out_dir / "partition.csv", partition)
    return ["graph.csv", "signal.csv", "observations.csv", "partition.csv"]


def _cmd_generate(args: argparse.Namespace) -> int:
    out_dir = args.out_dir
    # The generator's parameters are named after the subcommand's flags.
    names = [name for name in inspect.signature(args.make).parameters if name != "rng"]
    for name in ("samples", "sizes"):
        if name in names:
            setattr(args, name, _parse_list(getattr(args, name), f"--{name}", int))
    args.coeffs = _parse_list(args.coeffs, "--coeffs")
    params: dict[str, Any] = {name: getattr(args, name) for name in names}
    seeded = {} if args.kind == "chain" else {"rng": np.random.default_rng(args.seed)}
    g, partition, signal, obs = args.make(**params, **seeded)
    if args.kind == "sbm" and (components(g).max() > 0 or g.min_degree() == 0):
        print(
            "warning: generated graph is disconnected; the solver requires"
            " min degree >= 1 and labels in every component",
            file=sys.stderr,
        )
    outputs = _write_instance(out_dir, g, partition, signal, obs)
    _write_manifest(args, {"kind": args.kind, **params}, outputs)
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return EXIT_OK


def _load_config(args: argparse.Namespace) -> SolverConfig:
    if getattr(args, "config", None) is not None:
        data = read_json(args.config)
        try:
            return SolverConfig.from_mapping(data)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    return SolverConfig(
        lam=args.lam,
        max_iters=args.iters,
        gap_tol=args.gap_tol,
        feas_tol=args.feas_tol,
    )


def _write_solution(
    out_dir: Path, g: EmpiricalGraph, result: SolverResult
) -> list[str]:
    write_signal_csv(out_dir / "primal.csv", result.x)
    write_flow_csv(
        out_dir / "dual.csv",
        g,
        Flow(base=result.y, star_nodes=np.empty(0, dtype=np.int64), star=np.empty(0)),
    )
    return ["primal.csv", "dual.csv"]


def _cmd_solve(args: argparse.Namespace) -> int:
    out_dir = args.out_dir
    g = read_graph_csv(args.graph)
    obs = read_observations_csv(args.observations)
    cfg = _load_config(args)
    result = run(g, obs, cfg)

    outputs = _write_solution(out_dir, g, result)
    if result.certificate is not None:
        write_flow_csv(out_dir / "flow.csv", g, result.certificate.flow)
        write_partition_csv(out_dir / "partition.csv", result.certificate.partition)
        outputs += ["flow.csv", "partition.csv"]
    report = {
        "objective": result.gap.primal,
        "dual_objective": result.gap.dual,
        "gap": result.gap.gap,
        "certified": result.gap.certified,
        "capacity_excess": result.gap.capacity_excess,
        "conservation_residual": result.gap.conservation_residual,
        "iters": result.iters,
        "stop_reason": result.stop_reason,
        "primal_iterate": result.primal_iterate,
        "config": cfg.to_mapping(),
    }
    write_json(out_dir / "report.json", report)
    _write_manifest(args, cfg.to_mapping(), outputs + ["report.json"])
    gap_text = f"{result.gap.gap:.3e}" if result.gap.gap is not None else "not-certified"
    print(
        f"solved in {result.iters} iterations:"
        f" objective {result.gap.primal:.6g}, gap {gap_text}"
    )
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    out_dir = args.out_dir
    g = read_graph_csv(args.graph)
    flow = read_flow_csv(args.flow, g)
    partition = read_partition_csv(args.partition)
    obs = read_observations_csv(args.observations)
    report = verify_certificate(Problem(g, obs, args.lam), flow, partition, args.tol)

    payload = {**report.to_dict(), "lambda": args.lam, "tol": args.tol}
    write_json(out_dir / "report.json", payload)
    outputs = ["report.json"]
    if report.reconstructed is not None:
        write_signal_csv(out_dir / "reconstructed.csv", report.reconstructed)
        outputs.append("reconstructed.csv")
    _write_manifest(args, {"lambda": args.lam, "tol": args.tol}, outputs)
    print(f"certificate {report.status}")
    if report.status == "verified":
        return EXIT_OK
    if report.status == "indeterminate":
        print(
            "clusters without sampled nodes:"
            f" {[k + 1 for k in report.indeterminate_clusters]}"
        )
        return EXIT_INDETERMINATE
    print(f"reason: {report.failure_reason}")
    return EXIT_FAILED


def _diff_table(name: str, got: np.ndarray, want: np.ndarray) -> str:
    lines = [f"  {name:>10}  {'got':>12}  {'want':>12}  {'|diff|':>10}"]
    for idx, (a, b) in enumerate(zip(got, want), start=1):
        lines.append(f"  {idx:>10}  {a:>12.6f}  {b:>12.6f}  {abs(a - b):>10.3e}")
    return "\n".join(lines)


def _cmd_experiment_chain(args: argparse.Namespace) -> int:
    out_dir = args.out_dir

    cfg = _load_config(args)
    g, partition, signal, obs = chain_instance()
    outputs = _write_instance(out_dir, g, partition, signal, obs)
    result = run(g, obs, cfg)
    outputs += _write_solution(out_dir, g, result)

    # Figure-shaped dual: one row per chain edge, indexed by the edge's head.
    dual_lines = ["i,y"] + [
        f"{int(h)},{repr(float(v))}" for h, v in zip(g.heads, result.y)
    ]
    (out_dir / "chain_dual.csv").write_text("\n".join(dual_lines) + "\n", encoding="utf-8")
    outputs.append("chain_dual.csv")

    certificate = construct_tree_certificate(g, partition, obs, cfg.lam)
    write_flow_csv(out_dir / "flow.csv", g, certificate)
    outputs.append("flow.csv")
    problem = Problem(g, obs, cfg.lam)
    cert_report = verify_certificate(problem, certificate, partition, 1e-9)
    checks = chain_checks(problem, result, certificate, cert_report)

    failed = [c for c in checks if not c["passed"]]
    report = {
        "config": cfg.to_mapping(),
        "checks": checks,
        "all_passed": not failed,
        "solver": {
            "iters": result.iters,
            "objective": result.gap.primal,
            "gap": result.gap.gap,
            "certified": result.gap.certified,
            "stop_reason": result.stop_reason,
            "primal_iterate": result.primal_iterate,
        },
        "certificate": cert_report.to_dict(),
    }
    write_json(out_dir / "report.json", report)
    outputs.append("report.json")
    _write_manifest(args, cfg.to_mapping(), outputs)

    for c in checks:
        marker = "PASS" if c["passed"] else "FAIL"
        print(f"{marker} {c['name']}: {c['detail']}")
    if failed:
        if any(c["name"] == "dual_matches_reference" for c in failed):
            print("dual iterate vs reference:")
            print(_diff_table("edge head", result.y, CHAIN_REF_DUAL))
        if any(c["name"] == "primal_matches_reference" for c in failed):
            print(f"primal ({result.primal_iterate} iterate) vs reference:")
            print(_diff_table("node", result.x, CHAIN_REF_PRIMAL))
        return EXIT_FAILED if args.strict else EXIT_OK
    return EXIT_OK


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="regularization weight (default 1.0)")
    p.add_argument("--iters", type=int, default=1000,
                   help="maximum iterations (default 1000)")
    p.add_argument("--gap-tol", type=float, default=0.0,
                   help="stop once a gap probe (a flow certificate built from"
                        " the last iterate, else the repaired dual with the"
                        " better of the averaged and last primal iterate)"
                        " certifies a gap of at most this; 0 runs a fixed"
                        " number of iterations (default 0)")
    p.add_argument("--feas-tol", type=float, default=1e-9,
                   help="dual feasibility tolerance for gap certification")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tvflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tvflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph/signal/observations instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    chain = gen_sub.add_parser("chain", help="two-cluster chain graph")
    chain.add_argument("--n", type=int, default=10)
    chain.add_argument("--split", type=int, default=5,
                       help="last node of the first cluster (default 5)")
    chain.add_argument("--intra-weight", type=float, default=1.0)
    chain.add_argument("--boundary-weight", type=float, default=0.25)
    chain.add_argument("--samples", default="2,7",
                       help="comma-separated sampled node ids (default 2,7)")
    chain.add_argument("--coeffs", default="1,0",
                       help="cluster values (default 1,0)")

    grid = gen_sub.add_parser("grid", help="two-cluster lattice graph")
    grid.add_argument("--rows", type=int, default=4)
    grid.add_argument("--cols", type=int, default=6)
    grid.add_argument("--split-col", type=int, default=3)
    grid.add_argument("--intra-weight", type=float, default=1.0)
    grid.add_argument("--boundary-weight", type=float, default=0.25)
    grid.add_argument("--samples-per-cluster", type=int, default=2)
    grid.add_argument("--coeffs", default="1,0")

    sbm = gen_sub.add_parser("sbm", help="weighted stochastic block model")
    sbm.add_argument("--sizes", default="5,5",
                     help="comma-separated block sizes (default 5,5)")
    sbm.add_argument("--p-in", type=float, default=0.7)
    sbm.add_argument("--p-out", type=float, default=0.1)
    sbm.add_argument("--intra-weight", type=float, default=1.0)
    sbm.add_argument("--inter-weight", type=float, default=0.25)
    sbm.add_argument("--samples-per-cluster", type=int, default=1)
    sbm.add_argument("--coeffs", default="1,0")

    for p in (chain, grid, sbm):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        p.set_defaults(func=_cmd_generate)
    chain.set_defaults(kind="chain", make=chain_instance)
    grid.set_defaults(kind="grid", make=grid_instance)
    sbm.set_defaults(kind="sbm", make=sbm_instance)

    solve = sub.add_parser("solve", help="run the solver on CSV inputs")
    solve.add_argument("--graph", required=True)
    solve.add_argument("--observations", required=True)
    solve.add_argument("--config", default=None,
                       help="JSON config; overrides the individual flags")
    _add_solver_flags(solve)
    solve.add_argument("--out-dir", default=".")
    solve.set_defaults(func=_cmd_solve)

    certify = sub.add_parser("certify", help="verify a flow optimality certificate")
    certify.add_argument("--graph", required=True)
    certify.add_argument("--flow", required=True)
    certify.add_argument("--partition", required=True)
    certify.add_argument("--observations", required=True)
    certify.add_argument("--lambda", dest="lam", type=float, default=1.0)
    certify.add_argument("--tol", type=float, default=1e-9)
    certify.add_argument("--out-dir", default=".")
    certify.set_defaults(func=_cmd_certify)

    exp = sub.add_parser(
        "experiment-chain",
        help="run the canonical chain experiment end to end and check it",
    )
    _add_solver_flags(exp)
    exp.add_argument("--out-dir", default=".")
    exp.add_argument("--strict", action="store_true",
                     help="exit 1 when a threshold check fails")
    exp.set_defaults(func=_cmd_experiment_chain)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    resolved = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(resolved)
    args.argv = resolved
    args.out_dir = Path(args.out_dir)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"tvflow: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
