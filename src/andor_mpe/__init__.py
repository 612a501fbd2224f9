"""Exact MPE solving for Bayesian networks over AND/OR search graphs."""

from .model import (BeliefNetwork, Factor, apply_evidence, log_probability,
                    parse_evidence, parse_uai, primal_graph, serialize_uai)
from .structure import (EliminationOrder, PseudoTree, build_pseudo_tree,
                        min_fill_order)
from .factor_ops import log_factors
from .heuristics import (DmbEvaluator, MiniBucketTables, SmbEvaluator,
                         compile_smb)
from .limits import Budget, LimitExceeded
from .search import SearchProblem, SolveResult, aobb, aobf
from .oracle import OracleResult, bucket_elimination_mpe, enumerate_mpe
from .generators import GenSpec, gen_coding, gen_grid, gen_random
from .cli import build_problem, decompose

__all__ = [
    "BeliefNetwork", "Factor", "parse_uai", "serialize_uai", "parse_evidence",
    "apply_evidence", "primal_graph", "log_probability",
    "EliminationOrder", "PseudoTree", "min_fill_order", "build_pseudo_tree",
    "decompose", "build_problem",
    "log_factors", "MiniBucketTables", "SmbEvaluator", "DmbEvaluator", "compile_smb",
    "Budget", "LimitExceeded", "SearchProblem", "SolveResult", "aobf", "aobb",
    "OracleResult", "enumerate_mpe", "bucket_elimination_mpe",
    "GenSpec", "gen_random", "gen_grid", "gen_coding",
]
