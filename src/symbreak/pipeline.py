"""The full preprocessing pipeline: detect, post-process, break, assemble.

The graph is searched once per program.  Every automorphism found is
converted to an atom permutation and re-validated as a syntactic symmetry
before anything is built from it; permutations failing the gate are
dropped and kept aside, so a detection bug can only weaken the breaking,
never corrupt it.  Binary clauses come from the stabilizer chain of the
validated generators, and each pair's witness passes the same gate,
unless it is one of the generators that already passed it.
"""

from dataclasses import dataclass

from .automorphism import GeneratorSearch, find_generators
from .breaking import (Fragment, FreshAtoms, assemble, binary_rules,
                       break_rows, lex_leader_rules)
from .encoding import ColoredGraph, encode_program
from .smodels import GroundProgram
from .symmetry import (AtomOrder, AtomPermutation, RowMatrix, choose_order,
                       detect_rows, is_syntactic_symmetry, restrict_to_atoms,
                       stabilizer_binary_symmetries)


@dataclass
class BreakConfig:
    """Run settings; ``stabilizer_levels=0`` turns binary clauses off."""

    aux_limit: int = 50
    search_budget: int = 10 ** 6
    stabilizer_levels: int = 5
    row_detection: bool = True


@dataclass
class Detection:
    """Validated symmetries of one program, and the atom permutations of
    the search that failed the gate."""

    graph: ColoredGraph
    search: GeneratorSearch
    generators: list[AtomPermutation]
    rejected: list[AtomPermutation]


@dataclass
class BreakResult:
    program: GroundProgram
    detection: Detection
    rows: list[RowMatrix]
    order: AtomOrder
    pairs: list[tuple[int, int]]


def detect_symmetries(program: GroundProgram, config: BreakConfig = None) -> Detection:
    config = config or BreakConfig()
    graph = encode_program(program)
    search = find_generators(graph, config.search_budget)
    generators = []
    rejected = []
    for node_perm in search.generators:
        perm = restrict_to_atoms(graph, node_perm)
        if perm.is_identity:
            continue
        if is_syntactic_symmetry(program, perm):
            generators.append(perm)
        else:
            rejected.append(perm)
    return Detection(graph, search, generators, rejected)


def break_program(program: GroundProgram, config: BreakConfig = None) -> BreakResult:
    config = config or BreakConfig()
    if program.problems:
        raise ValueError(f"invalid program: {list(program.problems)}")

    detection = detect_symmetries(program, config)
    gens = detection.generators

    rows = detect_rows(program, gens) if config.row_detection else []
    order = choose_order(program, gens, rows)

    pairs = []
    if config.stabilizer_levels:
        validated = set(gens)  # these passed the gate in detect_symmetries
        for found in stabilizer_binary_symmetries(gens, order,
                                                  config.stabilizer_levels,
                                                  detection.search.order):
            witness = found.witness
            if witness.is_identity or (witness not in validated
                                       and not is_syntactic_symmetry(program, witness)):
                continue
            if min(witness.support, key=order.key) != found.first:
                continue
            pairs.append((found.first, found.second))

    alloc = FreshAtoms(program.max_atom + 1)
    new_false = None
    will_emit = bool(gens or rows or pairs)
    if will_emit and program.false_atom is None:
        new_false = alloc.fresh()
    head = program.false_atom if new_false is None else new_false

    fragments: list[Fragment] = []
    consumed = set()
    for matrix in rows:
        fragments += break_rows(matrix, order, config.aux_limit, alloc, head)
        for i, g in enumerate(gens):
            if matrix.row_map_of(g) is not None:
                consumed.add(i)
    for i, g in enumerate(gens):
        if i in consumed:
            continue
        fragments.append(lex_leader_rules(g, order, config.aux_limit, alloc, head))
    if pairs:
        fragments.append(binary_rules(pairs, head))

    augmented = assemble(program, fragments, alloc, new_false)
    return BreakResult(augmented, detection, rows, order, pairs)
