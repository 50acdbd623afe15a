"""Static symmetry breaking for ground answer set programs.

The package reads a program in the lparse-smodels intermediate format,
detects its syntactic symmetries through a colored-graph automorphism
search, and appends sound breaking constraints; an exact stable-model
oracle verifies every step at desk scale.  The oracle's names load on
first use, so that breaking never imports it.
"""

from .automorphism import (GeneratorSearch, OrderedPartition, Orbits,
                           color_refine, find_generators)
from .breaking import (FreshAtoms, assemble, binary_rules, break_rows,
                       lex_leader_rules)
from .encoding import ColoredGraph, encode_program
from .pipeline import (BreakConfig, BreakResult, Detection, break_program,
                       detect_symmetries)
from .smodels import (BasicRule, CardinalityRule, ChoiceRule, DisjunctiveRule,
                      GroundProgram, MinimizeStatement, ParseError, Rule,
                      WeightRule, parse_program, semantic_view, validate,
                      write_program)
from .symmetry import (AtomOrder, AtomPermutation, RowMatrix, choose_order,
                       detect_rows, is_syntactic_symmetry, restrict_to_atoms,
                       stabilizer_binary_symmetries)

__all__ = [
    "AtomOrder", "AtomPermutation", "BasicRule", "BreakConfig", "BreakResult",
    "CardinalityRule", "ChoiceRule", "ColoredGraph", "Detection",
    "DisjunctiveRule", "FreshAtoms", "GeneratorSearch",
    "GroundProgram", "MinimizeStatement", "OracleBudgetError", "Orbits",
    "OrderedPartition", "ParseError", "RowMatrix",
    "Rule", "SoundnessVerdict", "WeightRule", "answer_sets",
    "assemble", "binary_rules", "break_program", "break_rows",
    "check_soundness", "choose_order", "color_refine", "detect_rows",
    "detect_symmetries", "encode_program", "find_generators",
    "is_syntactic_symmetry", "lex_leader_rules",
    "parse_program", "restrict_to_atoms", "semantic_view",
    "stabilizer_binary_symmetries", "validate", "write_program",
]

_ORACLE_NAMES = {"OracleBudgetError", "SoundnessVerdict", "answer_sets", "check_soundness"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
