"""Command-line front end: solve instances, generate benchmarks, run sweeps."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import generators, model, oracle, structure
from .factor_ops import log_factors
from .heuristics import DmbEvaluator, SmbEvaluator, compile_smb
from .limits import UNLIMITED, Budget, LimitExceeded
from .search import SearchProblem, aobb, aobf

CSV_COLUMNS = ["instance", "n", "e", "w_star", "h", "algorithm", "heuristic",
               "ibound", "seed", "status", "mpe_log10", "mpe_prob", "nodes",
               "cache_hits", "cache_entries", "time_s"]

EXIT_SOLVED, EXIT_INPUT_ERROR, EXIT_TIMEOUT, EXIT_MEMOUT = 0, 1, 2, 3
_BYTES_PER_NODE = 256


@dataclass
class RunRecord:
    instance: str
    n: int
    e: int
    w_star: int
    h: int
    algorithm: str
    heuristic: str
    ibound: int | None
    seed: int
    status: str
    mpe_log10: float | None
    mpe_prob: float | None
    nodes: int
    cache_hits: int
    cache_entries: int
    time_s: float | None

    def row(self, redact_time: bool = False) -> list[str]:
        def num(x):
            if x is None:
                return "-"
            if isinstance(x, float):
                if x == -math.inf:
                    return "-inf"
                return format(x, ".12g")
            return str(x)

        return [self.instance, str(self.n), str(self.e), str(self.w_star),
                str(self.h), self.algorithm, self.heuristic,
                num(self.ibound), str(self.seed), self.status,
                num(self.mpe_log10), num(self.mpe_prob), str(self.nodes),
                str(self.cache_hits), str(self.cache_entries),
                "-" if redact_time else num(self.time_s)]


def decompose(net: model.BeliefNetwork, seed: int = 0,
              budget: Budget = UNLIMITED) -> structure.PseudoTree:
    """Min-fill order (ties broken with `seed`) and bucket tree of the primal
    graph, both built under `budget`, which is checked once more at the end;
    the tree carries the order and its induced width as `tree.elim` and the
    cache contexts as `tree.contexts`."""
    g = model.primal_graph(net)
    order = structure.min_fill_order(g, seed=seed, budget=budget)
    tree = structure.build_pseudo_tree(g, order, budget=budget)
    budget.check()
    return tree


def build_problem(net: model.BeliefNetwork, tree: structure.PseudoTree,
                  ibound: int, *, heuristic: str = "smb",
                  budget: Budget = UNLIMITED) -> SearchProblem:
    """The static ("smb") or dynamic ("dmb") mini-bucket heuristic over
    `tree`, ready for `aobf`/`aobb`; both share one `log_factors` list.
    The problem is built, and the DMB sweeps later, under `budget`."""
    factors = log_factors(net.factors)
    if heuristic == "smb":
        evaluator = SmbEvaluator(compile_smb(factors, tree, ibound,
                                             budget=budget))
    elif heuristic == "dmb":
        evaluator = DmbEvaluator(factors, tree, ibound, budget=budget)
    else:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    return SearchProblem(net, tree, evaluator, factors, budget)


def check_limits(time_limit, memory_limit_mb) -> None:
    """Raise ValueError unless each limit is None or a number >= 0; a time
    limit of inf means none, a memory limit must be finite in bytes."""
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit {time_limit!r} is NaN or negative")
    if (memory_limit_mb is not None
            and not 0 <= memory_limit_mb * 2**20 < math.inf):
        raise ValueError(f"memory limit {memory_limit_mb!r} is NaN, negative "
                         f"or too large")


def run_instance(net: model.BeliefNetwork, evidence: dict[int, int], *,
                 instance: str = "instance", algorithm: str = "aobf",
                 heuristic: str = "smb", ibound: int = 4, seed: int = 0,
                 time_limit: float | None = None,
                 memory_limit_mb: float | None = None):
    """Full solving pipeline; returns (RunRecord, full assignment or None).

    Wall time covers ordering, heuristic compilation and search; parsing and
    evidence reduction are excluded. One `Budget` made when the timing
    starts holds every stage: `time_limit` seconds, and from
    `memory_limit_mb` a cap on search nodes and one on table entries. The
    stage that finds it spent ends the run as "timeout" or "memout". Raises
    ValueError on a bad limit (`check_limits`).
    """
    check_limits(time_limit, memory_limit_mb)
    n_orig = len(net.variables) + len(net.evidence)
    reduced = model.apply_evidence(net, evidence)
    e_count = len(reduced.evidence)
    max_nodes = max_entries = None
    if memory_limit_mb is not None:
        max_nodes = int(memory_limit_mb * 2**20 // _BYTES_PER_NODE)
        max_entries = int(memory_limit_mb * 2**20 // 8)
    t0 = time.perf_counter()
    budget = Budget(time_limit, max_nodes, max_entries)
    status = "solved"
    stats_nodes = stats_hits = stats_entries = 0
    mpe_log = None
    assignment = None
    w_star = h = 0
    try:
        if not reduced.variables:
            mpe_log, assignment = 0.0, {}
        else:
            tree = decompose(reduced, seed=seed, budget=budget)
            w_star, h = tree.elim.induced_width, tree.height
            if algorithm == "brute":
                res = oracle.enumerate_mpe(reduced, budget=budget)
                mpe_log, assignment = res.mpe_log, res.assignment
            elif algorithm == "be":
                res = oracle.bucket_elimination_mpe(reduced, tree.elim, budget)
                mpe_log, assignment = res.mpe_log, res.assignment
            else:
                problem = build_problem(reduced, tree, ibound,
                                        heuristic=heuristic, budget=budget)
                if algorithm == "aobf":
                    res = aobf(problem, budget)
                elif algorithm == "aobb":
                    res = aobb(problem, budget)
                else:
                    raise ValueError(f"unknown algorithm {algorithm!r}")
                status = res.status
                mpe_log, assignment = res.mpe_log, res.assignment
                stats_nodes = res.stats.expansions
                stats_hits = res.stats.cache_hits
                stats_entries = res.stats.cache_entries
    except LimitExceeded as e:
        status = e.status
    elapsed = time.perf_counter() - t0
    mpe_log10 = mpe_prob = None
    if status == "solved":
        total_log = mpe_log + reduced.log_constant
        mpe_log10 = total_log / math.log(10)
        mpe_prob = 0.0 if total_log == -math.inf else math.exp(total_log)
    record = RunRecord(instance=instance, n=n_orig, e=e_count, w_star=w_star,
                       h=h, algorithm=algorithm, heuristic=heuristic,
                       ibound=ibound if algorithm in ("aobf", "aobb") else None,
                       seed=seed, status=status, mpe_log10=mpe_log10,
                       mpe_prob=mpe_prob, nodes=stats_nodes,
                       cache_hits=stats_hits, cache_entries=stats_entries,
                       time_s=elapsed)
    full_assignment = None
    if status == "solved" and assignment is not None:
        full_assignment = dict(assignment)
        full_assignment.update(reduced.evidence)
    return record, full_assignment


def _write_rows(out, rows, header: bool, redact_time: bool):
    w = csv.writer(out, lineterminator="\n")
    if header:
        w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow(r.row(redact_time=redact_time))


def cmd_solve(args) -> int:
    try:
        with open(args.input) as fh:
            net = model.parse_uai(fh.read())
        evidence = {}
        if args.evidence:
            with open(args.evidence) as fh:
                evidence = model.parse_evidence(fh.read())
        record, assignment = run_instance(
            net, evidence, instance=args.input, algorithm=args.algorithm,
            heuristic=args.heuristic, ibound=args.ibound, seed=args.seed,
            time_limit=args.time_limit, memory_limit_mb=args.memory_limit)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _write_rows(sys.stdout, [record], header=args.csv_header,
                redact_time=args.redact_time)
    if args.print_assignment and assignment is not None:
        for v in sorted(assignment):
            print(f"{v}={assignment[v]}", file=sys.stderr)
    return {"solved": EXIT_SOLVED, "timeout": EXIT_TIMEOUT,
            "memout": EXIT_MEMOUT}[record.status]


def cmd_generate(args) -> int:
    try:
        if args.family == "random":
            spec = generators.GenSpec("random", {
                "n": args.n, "d": args.d, "c": args.c, "p": args.p}, args.seed)
        elif args.family == "grid":
            spec = generators.GenSpec("grid", {
                "n": args.n, "det_fraction": args.det_fraction,
                "num_evidence": args.num_evidence}, args.seed)
        else:
            spec = generators.GenSpec("coding", {
                "n": args.n, "p": args.p, "sigma2": args.sigma2}, args.seed)
        net, evidence = generators.generate(spec)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    text = model.serialize_uai(net) + "\n"
    try:  # a coding likelihood above 1 reads back as a CPT, and is rejected
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unnormalized rows only warn
            model.parse_uai(text)
    except ValueError as e:
        hint = " (raise --sigma2)" if args.family == "coding" else ""
        print(f"error: generated network does not read back: {e}{hint}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    with open(args.out + ".uai", "w") as fh:
        fh.write(text)
    with open(args.out + ".uai.evid", "w") as fh:
        parts = [str(len(evidence))]
        for v in sorted(evidence):
            parts.append(f"{v} {evidence[v]}")
        fh.write(" ".join(parts) + "\n")
    with open(args.out + ".json", "w") as fh:
        fh.write(spec.to_json() + "\n")
    return EXIT_SOLVED


def _bench_cell(payload):
    (uai_path, evid_path, instance_id, algorithm, heuristic, ibound, seed,
     time_limit, memory_limit) = payload
    with open(uai_path) as fh:
        net = model.parse_uai(fh.read())
    evidence = {}
    if evid_path:
        with open(evid_path) as fh:
            evidence = model.parse_evidence(fh.read())
    record, _ = run_instance(net, evidence, instance=instance_id,
                             algorithm=algorithm, heuristic=heuristic,
                             ibound=ibound, seed=seed, time_limit=time_limit,
                             memory_limit_mb=memory_limit)
    return record


def cmd_bench(args) -> int:
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError("the manifest is not a JSON object")
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    instances = manifest.get("instances", [])
    ibounds = manifest.get("ibounds", [4])
    algorithms = manifest.get("algorithms", ["aobf", "aobb"])
    heuristic = manifest.get("heuristic", "smb")
    seed = manifest.get("seed", 0)
    time_limit = manifest.get("time_limit")
    memory_limit = manifest.get("memory_limit_mb")
    payloads = []
    try:
        for name in ("instances", "algorithms", "ibounds"):
            if not isinstance(manifest.get(name, []), list):
                raise ValueError(f'manifest "{name}" is not a list')
        for i in ibounds:
            if type(i) is not int:
                raise ValueError(f"manifest i-bound {i!r} is not an integer")
        if type(seed) is not int:
            raise ValueError(f'manifest "seed" {seed!r} is not an integer')
        for name, value in (("time_limit", time_limit),
                            ("memory_limit_mb", memory_limit)):
            if value is not None and type(value) not in (int, float):
                raise ValueError(f'manifest "{name}" {value!r} is not a number')
        check_limits(time_limit, memory_limit)
        if heuristic not in ("smb", "dmb"):
            raise ValueError(f'manifest "heuristic" {heuristic!r} is not '
                             f'"smb" or "dmb"')
        for inst in instances:
            if not isinstance(inst, dict) or "uai" not in inst:
                raise ValueError(f'manifest instance {inst!r} has no "uai" path')
            for key in ("uai", "evidence", "id"):
                if key in inst and not isinstance(inst[key], str):
                    raise ValueError(f'manifest instance {inst!r}: "{key}" is '
                                     f"not a string")
            for algorithm in algorithms:
                for i in ibounds:
                    payloads.append((inst["uai"], inst.get("evidence"),
                                     inst.get("id", inst["uai"]), algorithm,
                                     heuristic, i, seed, time_limit,
                                     memory_limit))
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                records = list(pool.map(_bench_cell, payloads))
        else:
            records = [_bench_cell(p) for p in payloads]
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # Solved records of each (algorithm, i) configuration.
    cells = {(algorithm, i): [r for r in records
                              if r.algorithm == algorithm and r.ibound == i
                              and r.status == "solved"]
             for algorithm in algorithms for i in ibounds}
    averages = []
    for algorithm in algorithms:
        for i in ibounds:
            cell = cells[algorithm, i]
            if not cell:
                continue
            averages.append(RunRecord(
                instance=f"AVERAGE[{algorithm},i={i}]",
                n=0, e=0, w_star=0, h=0, algorithm=algorithm,
                heuristic=heuristic, ibound=i, seed=seed, status="solved",
                mpe_log10=None, mpe_prob=None,
                nodes=round(sum(r.nodes for r in cell) / len(cell)),
                cache_hits=round(sum(r.cache_hits for r in cell) / len(cell)),
                cache_entries=round(sum(r.cache_entries for r in cell) / len(cell)),
                time_s=sum(r.time_s for r in cell) / len(cell)))
    buf = io.StringIO()
    _write_rows(buf, records + averages, header=True,
                redact_time=args.redact_time)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write("# i " + " ".join(f"{a}_time {a}_nodes" for a in algorithms)
                     + "\n")
            for i in ibounds:
                cols = [str(i)]
                for algorithm in algorithms:
                    cell = cells[algorithm, i]
                    if cell:
                        cols.append(format(sum(r.time_s for r in cell) / len(cell),
                                           ".6g"))
                        cols.append(format(sum(r.nodes for r in cell) / len(cell),
                                           ".6g"))
                    else:
                        cols.extend(["-", "-"])
                fh.write(" ".join(cols) + "\n")
    return EXIT_SOLVED


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INPUT_ERROR on a usage error: argparse's own code 2
    is EXIT_TIMEOUT here. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="andor-mpe",
        description="Exact MPE solving over AND/OR search graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one UAI instance")
    ps.add_argument("--input", required=True)
    ps.add_argument("--evidence")
    ps.add_argument("--algorithm", choices=["aobf", "aobb", "brute", "be"],
                    default="aobf")
    ps.add_argument("--heuristic", choices=["smb", "dmb"], default="smb")
    ps.add_argument("--ibound", type=int, default=4)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--memory-limit", type=float, default=None,
                    help="approximate budget in MB")
    ps.add_argument("--csv-header", action="store_true")
    ps.add_argument("--print-assignment", action="store_true",
                    help="print var=value pairs on stderr")
    ps.add_argument("--redact-time", action="store_true",
                    help="write '-' for wall time (reproducible output)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="write a benchmark instance")
    pg.add_argument("--family", choices=["random", "grid", "coding"],
                    required=True)
    pg.add_argument("--out", required=True, help="output path prefix")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, default=2)
    pg.add_argument("--c", type=int, default=0)
    pg.add_argument("--p", type=int, default=2)
    pg.add_argument("--det-fraction", type=float, default=0.0)
    pg.add_argument("--num-evidence", type=int, default=0)
    pg.add_argument("--sigma2", type=float, default=0.22)
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench", help="run an (instance, algorithm, i) sweep")
    pb.add_argument("--manifest", required=True)
    pb.add_argument("--out", help="CSV output path (default stdout)")
    pb.add_argument("--plot-data", help="gnuplot-ready means per i-bound")
    pb.add_argument("--workers", type=int, default=1)
    pb.add_argument("--redact-time", action="store_true")
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
