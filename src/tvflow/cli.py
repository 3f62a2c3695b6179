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
import functools
import inspect
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .flow import Flow, construct_tree_certificate, verify_certificate
from .graph import EmpiricalGraph
from .instances import (
    CHAIN_REF_DUAL,
    CHAIN_REF_PRIMAL,
    chain_checks,
    chain_instance,
    grid_instance,
    sbm_instance,
)
from .io import (
    _write_csv,
    _write_dual_and_flow_csv,
    read_flow_csv,
    read_graph_and_observations_csv,
    read_json,
    read_partition_csv,
    write_flow_csv,
    write_graph_csv,
    write_json,
    write_observations_csv,
    write_partition_csv,
    write_signal_csv,
)
from .signal import Observations, Partition, Problem
from .solver import SolverConfig, SolverResult, init_state, run

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of {noun}: {text!r}"
        )


def _write_manifest(
    args: argparse.Namespace, config: dict[str, Any], outputs: list[str]
) -> None:
    inputs = {
        name: str(path)
        for name in ("graph", "flow", "partition", "observations", "config")
        if (path := getattr(args, name, None)) is not None
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
    # The subcommand's flags are the generator's parameters (see _add_generator).
    names = [name for name in inspect.signature(args.make).parameters if name != "rng"]
    params: dict[str, Any] = {name: getattr(args, name) for name in names}
    seeded = {"rng": np.random.default_rng(args.seed)} if "seed" in args else {}
    g, partition, signal, obs = args.make(**params, **seeded)
    try:  # the solver's own checks, which do not depend on lambda
        init_state(Problem(g, obs, 1.0))
    except ValueError as exc:
        print(f"warning: solve will refuse this instance: {exc}", file=sys.stderr)
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
    g, obs = read_graph_and_observations_csv(args.graph, args.observations)
    cfg = _load_config(args)
    result = run(g, obs, cfg)

    certificate = result.certificate
    if certificate is None:
        outputs = _write_solution(out_dir, g, result)
    else:
        # result.y is the certificate's base flow, so dual.csv is flow.csv
        # without its star rows.
        write_signal_csv(out_dir / "primal.csv", result.x)
        _write_dual_and_flow_csv(
            out_dir / "dual.csv", out_dir / "flow.csv", g, certificate.flow
        )
        write_partition_csv(out_dir / "partition.csv", certificate.partition)
        outputs = ["primal.csv", "dual.csv", "flow.csv", "partition.csv"]
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
    g, obs = read_graph_and_observations_csv(args.graph, args.observations)
    flow = read_flow_csv(args.flow, g)
    partition = read_partition_csv(args.partition)
    try:
        partition.check_graph(g)
    except ValueError as exc:
        raise ValueError(f"{args.partition}: {exc}")
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
    _write_csv(out_dir / "chain_dual.csv", "i,y", (g.heads, result.y))
    outputs.append("chain_dual.csv")

    certificate = construct_tree_certificate(g, partition, obs, cfg.lam)
    write_flow_csv(out_dir / "flow.csv", g, certificate)
    outputs.append("flow.csv")
    problem = Problem(g, obs, cfg.lam)
    cert_report = verify_certificate(problem, certificate, partition)
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
    p.add_argument("--iters", type=int, default=SolverConfig.max_iters,
                   help="maximum iterations (default %(default)s)")
    p.add_argument("--gap-tol", type=float, default=SolverConfig.gap_tol,
                   help="stop once a gap probe (a flow certificate built from"
                        " the last iterate, else the repaired dual with the"
                        " better of the averaged and last primal iterate)"
                        " certifies a gap of at most this; 0 runs a fixed"
                        " number of iterations (default %(default)s)")
    p.add_argument("--feas-tol", type=float, default=SolverConfig.feas_tol,
                   help="dual feasibility tolerance for gap certification"
                        " (default %(default)s)")


def _add_generator(gen_sub: Any, kind: str, make: Any, help: str) -> None:
    """The subcommand ``generate kind``, whose flags are the parameters of
    ``make``: each becomes --name-with-dashes with its type and default (a
    tuple default as a comma-separated list), and ``rng`` becomes --seed."""
    p = gen_sub.add_parser(kind, help=help)
    for name, param in inspect.signature(make).parameters.items():
        default, parse = param.default, type(param.default)
        if name == "rng":
            name, default, parse = "seed", 0, int
        elif isinstance(default, tuple):
            parse = functools.partial(_parse_list, kind=type(default[0]))
            default = ",".join(map(str, default))
        p.add_argument("--" + name.replace("_", "-"), type=parse, default=default,
                       help="(default %(default)s)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_generate, kind=kind, make=make)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged, and
    each call of ``main`` gets a fresh namespace."""
    parser = _Parser(prog="tvflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tvflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph/signal/observations instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    _add_generator(gen_sub, "chain", chain_instance, "two-cluster chain graph")
    _add_generator(gen_sub, "grid", grid_instance, "two-cluster lattice graph")
    _add_generator(gen_sub, "sbm", sbm_instance, "weighted stochastic block model")

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
    certify.add_argument("--tol", type=float, default=Problem.DEFAULT_TOL)
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
