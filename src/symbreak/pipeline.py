"""The full preprocessing pipeline: detect, post-process, break, assemble.

The graph is searched once per program.  Every automorphism found is
converted to an atom permutation and re-validated as a syntactic symmetry
before anything is built from it; permutations failing the gate are
dropped and kept aside, so a detection bug can only weaken the breaking,
never corrupt it.  Binary clauses pair each emitted level's base atom v
with the rest of its orbit under the level's generators, and a generator
counts only if it is one of the validated ones and moves no atom ranked
below v; anything else is dropped, never sent to the gate again.
Syntactic symmetries form a group, so every orbit point is reached by a
symmetry that fixes everything ranked below v.
"""

from dataclasses import dataclass

from .automorphism import GeneratorSearch, find_generators, orbit
from .breaking import (Fragment, FreshAtoms, assemble, binary_rules,
                       break_rows, lex_leader_rules)
from .encoding import encode_program
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
    the search that failed the gate.  The searched graph is not kept:
    ``encode_program`` gives it again."""

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
    return Detection(search, generators, rejected)


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
        rank = order.rank
        for v, fixing in stabilizer_binary_symmetries(gens, order, config.stabilizer_levels):
            kept = [s for s in fixing if s in validated
                    and all(rank.get(a, -1) >= rank[v] for a in s.support)]
            pairs += [(v, w) for w in sorted(orbit(kept, v) - {v})]

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
