"""Belief network representation, UAI text format I/O, evidence reduction."""

from __future__ import annotations

import bisect
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


def _is_integer(tok: str) -> bool:
    """The integer rule of both input formats: a count, cardinality, scope
    variable, table size or evidence token is ASCII decimal digits with an
    optional leading '-'. So '+3', '1_0' and '٣' are not integers, while
    '-1' is one (and then fails as a negative count)."""
    digits = tok[1:] if tok[:1] == "-" else tok
    return digits.isascii() and digits.isdigit()


def _first_non_integer(toks: list[str]) -> int:
    """Index of the first token of `toks` that `_is_integer` rejects, or -1."""
    joined = "".join(toks)
    if joined.isascii() and joined.isdigit():  # all non-negative: the usual case
        return -1
    return next((k for k, tok in enumerate(toks) if not _is_integer(tok)), -1)


def _line_of(text: str, index: int) -> int:
    """1-based line of token `index` of `text.split()`; 1 before the first."""
    seen = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        seen += len(line.split())
        if seen > index:
            return lineno
    return 1


def parse_uai(text: str) -> BeliefNetwork:
    """Parse the UAI BAYES format. Unnormalized CPT rows trigger a warning.

    The text is split once. The integer part (preamble, scopes, table sizes)
    is walked by index; all table entries are converted in one call and
    checked as one flat buffer, of which each factor's table is a view. The
    first offending token in reading order is the one reported, with its
    line, which is worked out only then. Value errors (negative, NaN,
    infinite or CPT entries above 1) come after every token error: when the
    buffer has a suspect entry, `BeliefNetwork.validate` names the factor.
    """
    toks = text.split()
    ntok = len(toks)

    def error(message: str, at: int) -> UAIParseError:
        # `at` indexes the offending token; ntok - 1 at the end of the input.
        return UAIParseError(message, _line_of(text, at))

    def bad_integer(at: int, what: str) -> UAIParseError:
        if at >= ntok:
            return error(f"unexpected end of input, expected {what}", ntok - 1)
        return error(f"expected integer {what}, got {toks[at]!r}", at)

    if not toks:
        raise error("unexpected end of input, expected header", 0)
    if toks[0].upper() != "BAYES":
        raise error(f"expected BAYES header, got {toks[0]!r}", 0)
    if ntok < 2 or not _is_integer(toks[1]):
        raise bad_integer(1, "variable count")
    n = int(toks[1])
    if n < 0:
        raise error("negative variable count", 1)
    card_toks = toks[2:2 + n]
    bad = _first_non_integer(card_toks)
    cards = list(map(int, card_toks[:bad] if bad >= 0 else card_toks))
    for v, d in enumerate(cards):
        if d < 1:
            raise error(f"cardinality {d} of variable {v} must be >= 1", 2 + v)
    if len(cards) < n:
        raise bad_integer(2 + len(cards), f"cardinality of variable {len(cards)}")
    pos = 2 + n
    if pos >= ntok or not _is_integer(toks[pos]):
        raise bad_integer(pos, "factor count")
    m = int(toks[pos])
    if m < 0:
        raise error("negative factor count", pos)
    pos += 1
    scopes = []
    for k in range(m):
        if pos >= ntok or not _is_integer(toks[pos]):
            raise bad_integer(pos, f"scope size of factor {k}")
        size = int(toks[pos])
        if size < 0:
            raise error(f"negative scope size of factor {k}", pos)
        chunk = toks[pos + 1:pos + 1 + size]
        bad = _first_non_integer(chunk)
        if bad >= 0 or len(chunk) < size:
            raise bad_integer(pos + 1 + (bad if bad >= 0 else len(chunk)),
                              f"scope variable of factor {k}")
        pos += 1 + size
        scope = tuple(map(int, chunk))
        for v in scope:
            if not 0 <= v < n:
                raise error(f"factor {k} references unknown variable {v}", pos - 1)
        if len(set(scope)) != size:
            raise error(f"factor {k} scope {scope} repeats a variable", pos - 1)
        scopes.append(scope)

    # Table sizes are at known places once each is checked, so the walk only
    # finds the first error (`pending`); an entry before it that is not a
    # number is read first and wins.
    shapes = [tuple(cards[v] for v in scope) for scope in scopes]
    sizes = [math.prod(shape) for shape in shapes]
    start = pos
    size_at = []  # index of each table's size token
    pending = None
    for k, size in enumerate(sizes):
        if pos >= ntok or not _is_integer(toks[pos]):
            pending = bad_integer(pos, f"table size of factor {k}")
            break
        declared = int(toks[pos])
        if declared != size:
            pending = error(f"table length mismatch for factor {k}: declared "
                            f"{declared}, scope implies {size}", pos)
            break
        size_at.append(pos)
        pos += 1 + size
        if pos > ntok:
            pending = error(f"unexpected end of input, expected table of factor {k}",
                            ntok - 1)
            break
    else:
        if pos < ntok:
            pending = error(f"unexpected token {toks[pos]!r} after the last table", pos)
    section = toks[start:min(pos, ntok)]
    try:
        # Size tokens are decimal integers, so they convert too; dropped below.
        values = np.array(section, dtype=float)
    except ValueError:
        j = next(j for j, tok in enumerate(section) if not _is_float(tok))
        k = bisect.bisect_right(size_at, start + j) - 1
        raise error(f"non-numeric entry {section[j]!r} in table of factor {k}",
                    start + j) from None
    if pending is not None:
        raise pending
    buf = np.delete(values, np.array(size_at, dtype=np.intp) - start)
    offsets = np.cumsum([0] + sizes)
    factors = []
    for scope, shape, a, b in zip(scopes, shapes, offsets[:-1].tolist(),
                                  offsets[1:].tolist()):
        factors.append(Factor(scope=scope, table=buf[a:b].reshape(shape),
                              child=scope[-1] if scope else None))
    net = BeliefNetwork(variables=list(range(n)), domains=dict(enumerate(cards)),
                        factors=factors)
    if not (np.isfinite(buf) & (buf >= 0)).all() or (buf > 1 + 1e-9).any():
        # Raises for the first bad factor; passes if only empty-scope factors,
        # which are no CPTs, have entries above 1.
        net.validate()
    unnormalized = _unnormalized(buf, offsets, shapes)
    if unnormalized:
        warnings.warn(
            f"factors {unnormalized} have unnormalized CPT rows; "
            "solving max-product over the given tables", stacklevel=2)
    return net


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _unnormalized(buf: np.ndarray, offsets: np.ndarray, shapes: list) -> list[int]:
    """Factors with a row whose sum is off 1 by more than the tolerance, and
    every factor with an empty scope, which is no CPT. The rows of one width
    are summed as one (rows, width) array, so each row sum is bit for bit
    what `table.reshape(-1, width).sum(axis=1)` gives for its own table."""
    widths = np.array([shape[-1] if shape else 0 for shape in shapes], dtype=np.intp)
    sizes = np.diff(offsets)
    entry_width = np.repeat(widths, sizes)
    found = np.flatnonzero(widths == 0).tolist()
    for d in sorted(set(widths.tolist()) - {0}):
        sums = buf[entry_width == d].reshape(-1, d).sum(axis=1)
        off = ~(np.abs(sums - 1.0) <= ROW_NORMALIZATION_TOL)
        if off.any():
            of_width = widths == d
            owner = np.repeat(np.flatnonzero(of_width), sizes[of_width] // d)
            found.extend(owner[off].tolist())
    return sorted(set(found))


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
        if _is_integer(toks[k]):
            return int(toks[k])
        if k == 0:
            what = "the pair count"
        else:
            what = f"the {'variable' if k % 2 else 'value'} of pair {(k + 1) // 2}"
        raise ValueError(f"evidence token {k + 1} is {toks[k]!r}, expected "
                         f"an integer: {what}")

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
