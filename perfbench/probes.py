"""Per-layer spans recorded from outside the package.

Each probe replaces a public name at the place the pipeline looks it up
(``cli`` imports ``compile_smb``, ``DmbEvaluator``, ``SearchProblem``,
``aobf`` and ``aobb`` into its own namespace) with a wrapper that records a
span. A span's self time is its duration minus the time of the spans it
encloses. A span name is opened only by its outermost call, so ``h_and``
calling ``h_or`` counts once. Probes are installed only around traced
solves; a probe whose target no longer exists is skipped, and metrics built
on a span name none of whose probes could be installed are left out.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from andor_mpe import cli, heuristics, model, search, structure

PROBES = [
    (model, "parse_uai", "model.parse"),
    (model, "parse_evidence", "model.parse"),
    (model, "apply_evidence", "model.evidence"),
    (model, "primal_graph", "model.evidence"),
    (structure, "min_fill_order", "structure.min_fill"),
    (structure, "build_pseudo_tree", "structure.tree"),
    (structure, "compute_contexts", "structure.tree"),
    (cli, "compile_smb", "heuristics.compile"),
    (cli, "DmbEvaluator", "heuristics.compile"),
    (heuristics.SmbEvaluator, "h_or", "heuristics.h"),
    (heuristics.SmbEvaluator, "h_and", "heuristics.h"),
    (heuristics.DmbEvaluator, "h_or", "heuristics.h"),
    (heuristics.DmbEvaluator, "h_and", "heuristics.h"),
    (cli, "SearchProblem", "search.problem"),
    (search.SearchProblem, "weight", "search.weight"),
    (cli, "aobf", "search.aobf"),
    (cli, "aobb", "search.aobb"),
    (cli, "run_instance", "cli.run_instance"),
]


class Tracer:
    """Accumulates span totals over every solve run inside ``with tracer:``."""

    def __init__(self):
        self.total = defaultdict(float)  # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # span name -> exclusive seconds
        self.calls = defaultdict(int)
        self.table_entries = 0  # entries of the SMB tables compiled
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._open: list[float] = []  # child seconds of each open span
        self._depth = defaultdict(int)
        self._saved = []

    def __enter__(self):
        for owner, attr, name in PROBES:
            target = owner.__dict__.get(attr)
            if target is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            self.installed.add(name)
            self._saved.append((owner, attr, target))
            setattr(owner, attr, self._span(target, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, target = self._saved.pop()
            setattr(owner, attr, target)
        return False

    def _span(self, fn, name):
        open_spans, depth = self._open, self._depth
        total, self_s, calls = self.total, self.self_s, self.calls

        def span(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] = 1
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[name] = 0
                child = open_spans.pop()
                total[name] += dt
                self_s[name] += dt - child
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if name == "heuristics.compile":
                self.table_entries += getattr(result, "table_entries", 0)
            return result

        return span
