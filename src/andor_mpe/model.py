"""Belief network representation, UAI text format I/O, evidence reduction."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

ROW_NORMALIZATION_TOL = 1e-6


class UAIParseError(ValueError):
    """Malformed UAI input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        # Both arguments stay in `args`, so the error pickles (process pools).
        super().__init__(message, line)
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[0]}"


@dataclass(eq=False)
class Factor:
    """A probability table over `scope` in row-major order.

    For CPTs the child variable is the last scope variable; likelihood
    factors (e.g. folded channel observations) set `child` to None and are
    exempt from row-normalization checks.
    """

    scope: tuple[int, ...]
    table: np.ndarray  # linear probabilities, shape = domain sizes of scope
    child: int | None = None

    def is_normalized(self, domains: dict[int, int]) -> bool:
        if self.child is None:
            return False
        d = domains[self.child]
        rows = self.table.reshape(-1, d)
        return bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= ROW_NORMALIZATION_TOL))


@dataclass(eq=False)
class BeliefNetwork:
    """Discrete belief network: variables, domains, CPT factors, evidence.

    `log_constant` accumulates factors that became scalars during evidence
    reduction; it is excluded from `log_probability`, which scores only the
    live factors.
    """

    variables: list[int]
    domains: dict[int, int]
    factors: list[Factor]
    evidence: dict[int, int] = field(default_factory=dict)
    log_constant: float = 0.0

    def validate(self) -> None:
        declared = set(self.variables)
        for k, f in enumerate(self.factors):
            if len(set(f.scope)) != len(f.scope):
                raise ValueError(f"factor {k} scope {f.scope} repeats a variable")
            if not set(f.scope) <= declared:
                raise ValueError(f"factor {k} scope {f.scope} not a subset of variables")
            shape = tuple(self.domains[v] for v in f.scope)
            if f.table.shape != shape:
                raise ValueError(f"factor {k} table shape {f.table.shape} != {shape}")
            if not (np.isfinite(f.table) & (f.table >= 0)).all():
                raise ValueError(f"factor {k} has negative, NaN or infinite entries")
            # Likelihood factors (child None) may carry density values > 1.
            if f.child is not None and (f.table > 1 + 1e-9).any():
                raise ValueError(f"factor {k} has CPT entries above 1")
        for v, x in self.evidence.items():
            if not 0 <= x < self.domains.get(v, 0):
                raise ValueError(f"evidence {v}={x} outside domain")


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            yield tok, lineno


def parse_uai(text: str) -> BeliefNetwork:
    """Parse the UAI BAYES format. Unnormalized CPT rows trigger a warning."""
    it = _tokens(text)
    line = 1

    def next_tok(what: str):
        nonlocal line
        try:
            tok, line = next(it)
            return tok
        except StopIteration:
            raise UAIParseError(f"unexpected end of input, expected {what}", line)

    def next_int(what: str) -> int:
        tok = next_tok(what)
        try:
            return int(tok)
        except ValueError:
            raise UAIParseError(f"expected integer {what}, got {tok!r}", line)

    def next_float(what: str) -> float:
        tok = next_tok(what)
        try:
            return float(tok)
        except ValueError:
            raise UAIParseError(f"non-numeric entry {tok!r} in {what}", line)

    header = next_tok("header")
    if header.upper() != "BAYES":
        raise UAIParseError(f"expected BAYES header, got {header!r}", line)
    n = next_int("variable count")
    if n < 0:
        raise UAIParseError("negative variable count", line)
    domains = {}
    for v in range(n):
        d = next_int(f"cardinality of variable {v}")
        if d < 1:
            raise UAIParseError(f"cardinality {d} of variable {v} must be >= 1", line)
        domains[v] = d
    m = next_int("factor count")
    if m < 0:
        raise UAIParseError("negative factor count", line)
    scopes = []
    for k in range(m):
        size = next_int(f"scope size of factor {k}")
        if size < 0:
            raise UAIParseError(f"negative scope size of factor {k}", line)
        scope = tuple(next_int(f"scope variable of factor {k}") for _ in range(size))
        for v in scope:
            if v not in domains:
                raise UAIParseError(f"factor {k} references unknown variable {v}", line)
        if len(set(scope)) != len(scope):
            raise UAIParseError(f"factor {k} scope {scope} repeats a variable", line)
        scopes.append(scope)
    factors = []
    unnormalized = []
    for k, scope in enumerate(scopes):
        declared = next_int(f"table size of factor {k}")
        expected = math.prod(domains[v] for v in scope)
        if declared != expected:
            raise UAIParseError(
                f"table length mismatch for factor {k}: declared {declared}, "
                f"scope implies {expected}", line)
        entries = [next_float(f"table of factor {k}") for _ in range(declared)]
        table = np.array(entries, dtype=float).reshape(
            tuple(domains[v] for v in scope))
        f = Factor(scope=scope, table=table, child=scope[-1] if scope else None)
        if not f.is_normalized(domains):
            unnormalized.append(k)
        factors.append(f)
    extra = next(it, None)
    if extra is not None:
        raise UAIParseError(f"unexpected token {extra[0]!r} after the last table",
                            extra[1])
    net = BeliefNetwork(variables=list(range(n)), domains=domains, factors=factors)
    net.validate()
    if unnormalized:
        warnings.warn(
            f"factors {unnormalized} have unnormalized CPT rows; "
            "solving max-product over the given tables", stacklevel=2)
    return net


def serialize_uai(net: BeliefNetwork) -> str:
    """Emit UAI BAYES text; reparsing yields an equal network (6 sig. digits)."""
    out = ["BAYES", str(len(net.variables))]
    out.append(" ".join(str(net.domains[v]) for v in net.variables))
    out.append(str(len(net.factors)))
    for f in net.factors:
        out.append(" ".join([str(len(f.scope))] + [str(v) for v in f.scope]))
    out.append("")
    for f in net.factors:
        out.append(str(f.table.size))
        flat = f.table.ravel()
        width = net.domains[f.scope[-1]] if f.scope else 1
        for start in range(0, flat.size, width):
            out.append(" ".join(format(x, ".6g") for x in flat[start:start + width]))
        out.append("")
    return "\n".join(out)


def parse_evidence(text: str) -> dict[int, int]:
    """Evidence file: count, then that many 'var value' pairs, each naming a
    different variable."""
    toks = text.split()
    if not toks:
        return {}

    def integer(k: int) -> int:
        try:
            return int(toks[k])
        except ValueError:
            if k == 0:
                what = "the pair count"
            else:
                what = f"the {'variable' if k % 2 else 'value'} of pair {(k + 1) // 2}"
            raise ValueError(f"evidence token {k + 1} is {toks[k]!r}, expected "
                             f"an integer: {what}") from None

    count = integer(0)
    if len(toks) != 1 + 2 * count:
        raise ValueError(f"evidence file declares {count} pairs, found {(len(toks) - 1) // 2}")
    pairs = [integer(k) for k in range(1, len(toks))]
    evidence = {}
    for v, x in zip(pairs[::2], pairs[1::2]):
        if v in evidence:
            raise ValueError(f"evidence names variable {v} twice")
        evidence[v] = x
    return evidence


def apply_evidence(net: BeliefNetwork, evidence: dict[int, int]) -> BeliefNetwork:
    """Slice all factors at the evidence; fold constants into `log_constant`."""
    for v, x in evidence.items():
        if v not in net.domains:
            raise ValueError(f"evidence on unknown variable {v}")
        if not 0 <= x < net.domains[v]:
            raise ValueError(f"evidence {v}={x} outside domain of size {net.domains[v]}")
    if not evidence:
        return net
    log_constant = net.log_constant
    factors = []
    for f in net.factors:
        if not any(v in evidence for v in f.scope):
            factors.append(f)
            continue
        idx = tuple(evidence[v] if v in evidence else slice(None) for v in f.scope)
        new_scope = tuple(v for v in f.scope if v not in evidence)
        sliced = np.asarray(f.table[idx])
        if not new_scope:
            val = float(sliced)
            log_constant += math.log(val) if val > 0 else -math.inf
            continue
        child = f.child if f.child is not None and f.child not in evidence else None
        factors.append(Factor(scope=new_scope, table=sliced, child=child))
    variables = [v for v in net.variables if v not in evidence]
    domains = {v: net.domains[v] for v in variables}
    merged_evidence = dict(net.evidence)
    merged_evidence.update(evidence)
    return BeliefNetwork(variables=variables, domains=domains, factors=factors,
                         evidence=merged_evidence, log_constant=log_constant)


def primal_graph(net: BeliefNetwork) -> dict[int, set[int]]:
    """Moral graph: every factor scope becomes a clique."""
    adj: dict[int, set[int]] = {v: set() for v in net.variables}
    for f in net.factors:
        scope = f.scope
        for i in range(len(scope)):
            for j in range(i + 1, len(scope)):
                adj[scope[i]].add(scope[j])
                adj[scope[j]].add(scope[i])
    return adj


def log_probability(net: BeliefNetwork, assignment: dict[int, int]) -> float:
    """Sum of natural-log factor entries at a total assignment; -inf on zeros."""
    missing = [v for v in net.variables if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables {missing[:5]}")
    total = 0.0
    for f in net.factors:
        val = float(f.table[tuple(assignment[v] for v in f.scope)])
        if val <= 0.0:
            return -math.inf
        total += math.log(val)
    return total
