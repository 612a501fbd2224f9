"""One benchmark run of one workload.

A run generates the workload's instances from the seed and solves them in a
closed loop on one thread: one solve at a time, each instance with every
algorithm in turn, until the given seconds have passed and the workload's
minimum number of solves is reached. A solve is timed from UAI text to result
along the path ``andor-mpe solve`` takes: ``parse_uai`` and
``parse_evidence``, then ``cli.run_instance``. After the loop, outside any
timed region, every answer is checked against bucket elimination on the
evidence-reduced network and against ``log_probability`` of the returned
assignment.

Untraced runs report the end-to-end metrics. A traced run solves every
instance twice, without and with probes on each layer (``probes.py``), and
reports per-layer metrics:

* ``*_s``: seconds per solve in that layer, averaged over the traced solves;
* counts: exact sums over the first ``count_solves`` solves of the run, the
  same instances for a given seed whatever the machine's speed;
* ``*_per_s``, ``*_per_call``, ``trace.overhead_share``: over all solves.

The exact counts of each (workload, seed, solver source) are kept under
``perfbench/.fingerprints``; a later run whose counts differ fails. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 when every
check passed and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from andor_mpe import (EliminationOrder, apply_evidence, bucket_elimination_mpe,
                       cli, gen_random, log_probability, model, serialize_uai)
from probes import Tracer
from workloads import ALGORITHMS, WORKLOADS, Instance

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FINGERPRINTS = HERE / ".fingerprints"
SETUP_REPEATS = 3
LOOP_CAP_S = 120.0  # stop even below the minimum solve count, to end in time
ORACLE_TOL = 1e-9
# gen_random(100, 2, 90, 2, seed=501) at i=6 with SMB, from the ROADMAP Baseline.
PROBE_EXPANSIONS = {"aobf": 19229, "aobb": 25211}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def agree(a, b) -> bool:
    if a is None or b is None:
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ORACLE_TOL * max(1.0, abs(a), abs(b))


def oracle_order(net) -> EliminationOrder:
    """Min-degree elimination order, kept apart from the min-fill code that
    the benchmark times."""
    adj = {v: set() for v in net.variables}
    for f in net.factors:
        for a in f.scope:
            adj[a].update(u for u in f.scope if u != a)
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapq.heapify(heap)
    order, width = [], 0
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in adj or degree != len(adj[v]):
            continue
        nbrs = adj.pop(v)
        order.append(v)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a].discard(v)
            adj[a].update(nbrs - {a})
            heapq.heappush(heap, (len(adj[a]), a))
    return EliminationOrder(order=tuple(order), induced_width=width)


def check_answer(net, row, expect):
    """None when a solve's answer is right, else the reason it is not."""
    if not agree(row["mpe_log10"], expect):
        return f"mpe_log10 {row['mpe_log10']!r} != bucket elimination {expect!r}"
    if row["assignment"] is None:
        return "no assignment"
    assignment = dict(zip(sorted(net.variables), row["assignment"]))
    score = log_probability(net, assignment) / math.log(10)
    if not agree(score, row["mpe_log10"]):
        return f"assignment scores {score!r}, reported {row['mpe_log10']!r}"
    return None


class Runner:
    """Solves one workload's instances and checks the answers."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def solve(self, inst, algorithm, traced=False):
        """One timed solve; a row dict, or None when it crashed or did not
        end `solved`. Probes are installed only around a traced solve."""
        tr = self.tracer
        self.attempted += 1
        before = (tr.calls["heuristics.h"], tr.calls["search.weight"],
                  tr.table_entries) if traced else None
        reason = None
        try:
            with tr if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    net = model.parse_uai(inst.uai)
                    evidence = model.parse_evidence(inst.evidence)
                record, assignment = cli.run_instance(
                    net, evidence, instance=inst.label, algorithm=algorithm,
                    heuristic=self.wl.heuristic, ibound=self.wl.ibound)
                elapsed = time.perf_counter() - t0
            if record.status != "solved":
                reason = f"status {record.status}"
        except Exception:  # a crash is a failed solve, not a failed benchmark
            reason = traceback.format_exc(limit=3)
        finally:
            gc.collect()  # no solve pays for the garbage of the one before
        if reason is not None:
            self.failures.append(f"{inst.label} {algorithm}: {reason}")
            return None
        row = {"inst": inst, "t": elapsed, "algorithm": algorithm,
               "mpe_log10": record.mpe_log10,
               "assignment": None if assignment is None
               else tuple(assignment[v] for v in sorted(assignment)),
               "nodes": record.nodes, "cache_hits": record.cache_hits,
               "cache_entries": record.cache_entries, "w_star": record.w_star,
               "height": record.h, "warnings": len(caught)}
        if traced:
            row["h_calls"] = tr.calls["heuristics.h"] - before[0]
            row["weight_calls"] = tr.calls["search.weight"] - before[1]
            row["table_entries"] = tr.table_entries - before[2]
        return row

    def check(self, rows):
        """Check answers against the oracle, once per instance. Runs after
        the measured loop, so the oracle's tables stay out of peak RSS."""
        groups = {}
        for row in rows:
            groups.setdefault(row["inst"], []).append(row)
        for inst, group in groups.items():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    net = model.parse_uai(inst.uai)
                reduced = apply_evidence(net, model.parse_evidence(inst.evidence))
                be = bucket_elimination_mpe(reduced, oracle_order(reduced))
                expect = (be.mpe_log + reduced.log_constant) / math.log(10)
                reasons = [check_answer(net, row, expect) for row in group]
            except Exception:
                reasons = [traceback.format_exc(limit=3)]
            self.failures.extend(f"{inst.label} {row['algorithm']}: {reason}"
                                 for row, reason in zip(group, reasons) if reason)


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def exact_counts(rows):
    counts = {
        "search.aobf_expansions": sum(r["nodes"] for r in rows
                                      if r["algorithm"] == "aobf"),
        "search.aobb_expansions": sum(r["nodes"] for r in rows
                                      if r["algorithm"] == "aobb"),
        "search.cache_hits": sum(r["cache_hits"] for r in rows),
        "search.cache_entries": sum(r["cache_entries"] for r in rows),
        "structure.induced_width_sum": sum(r["w_star"] for r in rows),
        "structure.height_sum": sum(r["height"] for r in rows),
        "model.parse_warnings": sum(r["warnings"] for r in rows),
    }
    if rows and "h_calls" in rows[0]:
        counts["heuristics.h_calls"] = sum(r["h_calls"] for r in rows)
        counts["search.weight_calls"] = sum(r["weight_calls"] for r in rows)
        counts["heuristics.table_entries"] = sum(r["table_entries"] for r in rows)
    return counts


def check_fingerprint(workload, seed, counts):
    """Compare with the counts earlier runs of the same seed and solver
    source recorded; returns the names that differ, and records the union."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "andor_mpe").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    FINGERPRINTS.mkdir(exist_ok=True)
    path = FINGERPRINTS / f"{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(k for k in counts if k in known and known[k] != counts[k])
    known.update(counts)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return differ


def probe_check(runner):
    """The ROADMAP Baseline's expansion counts on the seed-501 instance."""
    inst = Instance("random100-s501", serialize_uai(gen_random(100, 2, 90, 2, seed=501)),
                    "0\n")
    rows = [runner.solve(inst, algorithm) for algorithm in PROBE_EXPANSIONS]
    runner.check([r for r in rows if r is not None])
    got = {a: None if r is None else r["nodes"] for a, r in zip(PROBE_EXPANSIONS, rows)}
    if got != PROBE_EXPANSIONS:
        runner.failures.append(f"probe seed 501: expansions {got}, Baseline "
                               f"{PROBE_EXPANSIONS}")
    return got


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, traced_rows, plain_rows, counted):
    """Per-layer metrics of a traced run. A metric whose span had none of
    its probes installed is left out."""
    n = len(traced_rows)
    tot, own, have = tracer.total, tracer.self_s, tracer.installed
    m = {}
    for name, span, spans in (
            ("model.parse_s", "model.parse", tot),
            ("model.evidence_s", "model.evidence", tot),
            ("structure.min_fill_s", "structure.min_fill", tot),
            ("structure.tree_s", "structure.tree", tot),
            ("heuristics.compile_s", "heuristics.compile", tot),
            ("heuristics.h_s", "heuristics.h", tot),
            ("search.problem_s", "search.problem", tot),
            ("search.weight_s", "search.weight", tot),
            ("search.aobf_self_s", "search.aobf", own),
            ("search.aobb_self_s", "search.aobb", own),
            ("cli.overhead_s", "cli.run_instance", own)):
        if span in have:
            m[name] = metric(spans[span] / n, "s/solve")
    needs = {"heuristics.h_calls": "heuristics.h", "search.weight_calls": "search.weight",
             "heuristics.table_entries": "heuristics.compile"}
    for name, value in counted.items():
        if name not in needs or needs[name] in have:
            m[name] = metric(value, "count")
    hits, entries = counted["search.cache_hits"], counted["search.cache_entries"]
    m["search.cache_hit_ratio"] = metric(hits / (hits + entries) if hits + entries
                                         else 0.0, "ratio")
    if tracer.calls["heuristics.h"]:
        m["heuristics.h_us_per_call"] = metric(
            1e6 * tot["heuristics.h"] / tracer.calls["heuristics.h"], "us")
    for algorithm in ALGORITHMS:
        span = f"search.{algorithm}"
        if tot[span] > 0:
            expanded = sum(r["nodes"] for r in traced_rows if r["algorithm"] == algorithm)
            m[f"{span}_expansions_per_s"] = metric(expanded / tot[span], "1/s")
    m["trace.overhead_share"] = metric(
        sum(r["t"] for r in traced_rows) / sum(r["t"] for r in plain_rows) - 1.0, "share")
    return m


def run_workload(args, t_start):
    wl = WORKLOADS[args.workload]
    import_s = time.perf_counter() - t_start
    import_rss = rss_mb()
    runner = Runner(wl, Tracer() if args.trace else None)

    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = wl.instances(args.seed, wl.pool)
        warm = wl.instances(args.seed, 1, warmup=True)[0]
        rows = [runner.solve(warm, algorithm) for algorithm in ALGORITHMS]
        runner.check([r for r in rows if r is not None])
        reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(reps)
    warm_attempted, warm_failed = runner.attempted, len(runner.failures)

    plain, traced = [], []
    loop_t0 = time.perf_counter()
    k = 0
    while True:
        inst = pool[k % len(pool)]
        k += 1
        for algorithm in ALGORITHMS:
            if args.trace:
                # Paired solves, alternating which of the two goes first.
                for with_probes in ((False, True) if len(traced) % 2 else (True, False)):
                    row = runner.solve(inst, algorithm, traced=with_probes)
                    if row is not None:
                        (traced if with_probes else plain).append(row)
            else:
                row = runner.solve(inst, algorithm)
                if row is not None:
                    plain.append(row)
        elapsed = time.perf_counter() - loop_t0
        # Traced runs need only the counted prefix; untraced ones need enough
        # solves for the tail percentile.
        enough = (len(traced) >= wl.count_solves if args.trace
                  else len(plain) >= wl.min_solves)
        if (elapsed >= args.seconds and enough) or elapsed >= LOOP_CAP_S:
            break
    loop_s = time.perf_counter() - loop_t0
    peak_rss = rss_mb()
    runner.check(plain + traced)
    attempted = runner.attempted - warm_attempted
    loop_failed = len(runner.failures) - warm_failed

    counted = exact_counts((traced if args.trace else plain)[:wl.count_solves])
    if not runner.failures:
        for name in check_fingerprint(wl.name, args.seed, counted):
            runner.failures.append(f"exact count {name} differs from an earlier "
                                   f"run of seed {args.seed}")
    probe = probe_check(runner) if args.trace and wl.name == "rand-search" else None

    print(f"workload {wl.name}: seed {args.seed}, {attempted} solves attempted in "
          f"{loop_s:.1f} s, {loop_failed} failed")
    if args.trace:
        metrics = layer_metrics(runner.tracer, traced, plain, counted)
        mean_t = statistics.mean(r["t"] for r in traced)
        print("share of traced solve time: " + ", ".join(
            f"{name[:-2]} {v['value'] / mean_t:.3f}" for name, v in metrics.items()
            if v["unit"] == "s/solve"))
        if runner.tracer.missing:
            print("probes whose target is gone: " + ", ".join(sorted(runner.tracer.missing)))
        if probe is not None:
            print(f"gen_random(100,2,90,2,seed=501) at i=6: expansions {probe}, "
                  f"Baseline {PROBE_EXPANSIONS}")
    else:
        times = sorted(r["t"] for r in plain)
        tail, beyond = percentile(times, wl.tail_pct)
        metrics = {
            "solves_per_s": metric(len(times) / sum(times), "1/s"),
            "solve_s_p50": metric(statistics.median(times), "s"),
            "solve_s_tail": metric(tail, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "verified_share": metric(1.0 - loop_failed / attempted, "share"),
        }
        print(f"solve_s_tail is p{wl.tail_pct:g} of {len(times)} solves, "
              f"{beyond} beyond it")
        print(f"set-up: imports {import_s:.3f} s, then {SETUP_REPEATS} repeats of "
              f"generate + serialise + warm-up: {', '.join(f'{r:.3f}' for r in reps)} s; "
              f"RSS after imports {import_rss:.1f} MB")
    print(f"exact counts over the first {wl.count_solves} solves: "
          f"{json.dumps(counted, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name} = {value['value']:.6g} {value['unit']}")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not runner.failures, "attempted": attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 1 if runner.failures else 0


def run_all(args):
    """Each workload in its own fresh process, so peak RSS is its own."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and results[name]["correct"]
    names = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    print(f"{'metric':32s}{'unit':>8s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = "".join(f"{r['metrics'][name]['value']:14.5g}" if name in r["metrics"]
                        else f"{'-':>14s}" for r in results.values())
        print(f"{name:32s}{unit:>8s}{cells}")
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{k}": v for w, r in results.items()
                                  for k, v in r["metrics"].items()}}))
    return 0 if ok else 1
