"""The full preprocessing pipeline: detect, post-process, break, assemble.

The graph is searched once per program.  Every automorphism found is
converted to an atom permutation and re-validated as a syntactic symmetry
before anything is built from it; permutations failing the gate are
dropped and kept aside, so a detection bug can only weaken the breaking,
never corrupt it.  Binary clauses pair each emitted level's base atom v
with the rest of its orbit under the level's generators, which are the
validated ones that move no atom ranked below v.  Syntactic symmetries
form a group, so every orbit point is reached by a symmetry that fixes
everything ranked below v.  The constraint head is not chosen here:
``FreshAtoms`` takes it from the program's view.
"""

from typing import NamedTuple

from .automorphism import GeneratorSearch, find_generators, orbit
from .breaking import (FreshAtoms, assemble, binary_rules, break_rows,
                       lex_leader_rules)
from .encoding import encode_program
from .smodels import GroundProgram
from .symmetry import (AtomOrder, AtomPermutation, RowMatrix, choose_order,
                       detect_rows, is_syntactic_symmetry, restrict_to_atoms,
                       stabilizer_binary_symmetries)


class BreakConfig(NamedTuple):
    """Run settings; ``stabilizer_levels=0`` turns binary clauses off."""

    aux_limit: int = 50
    search_budget: int = 10 ** 6
    stabilizer_levels: int = 5
    row_detection: bool = True


class Detection(NamedTuple):
    """Validated symmetries of one program, and the atom permutations of
    the search that failed the gate.  The searched graph is not kept:
    ``encode_program`` gives it again."""

    search: GeneratorSearch
    generators: list[AtomPermutation]
    rejected: list[AtomPermutation]


class BreakResult(NamedTuple):
    program: GroundProgram
    detection: Detection
    rows: list[RowMatrix]
    order: AtomOrder
    pairs: list[tuple[int, int]]


def detect_symmetries(program: GroundProgram, config: BreakConfig = None) -> Detection:
    config = config or BreakConfig()
    if program.problems:
        raise ValueError(f"invalid program: {list(program.problems)}")
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
    return Detection(search, generators, rejected)


def break_program(program: GroundProgram, config: BreakConfig = None) -> BreakResult:
    config = config or BreakConfig()
    detection = detect_symmetries(program, config)
    gens = detection.generators

    rows = detect_rows(program, gens) if config.row_detection else []
    order = choose_order(gens, rows)

    pairs = []
    for v, fixing in stabilizer_binary_symmetries(gens, order, config.stabilizer_levels):
        pairs += [(v, w) for w in sorted(orbit(fixing, v) - {v})]

    alloc = FreshAtoms(program)
    fragments = []
    for matrix in rows:
        fragments += break_rows(matrix, order, config.aux_limit, alloc)
    for g in gens:
        if all(matrix.row_map_of(g) is None for matrix in rows):
            fragments.append(lex_leader_rules(g, order, config.aux_limit, alloc))
    if pairs:
        fragments.append(binary_rules(pairs, alloc))

    augmented = assemble(program, fragments, alloc)
    return BreakResult(augmented, detection, rows, order, pairs)
