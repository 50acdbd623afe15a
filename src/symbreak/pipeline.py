"""The full preprocessing pipeline: detect, post-process, break, assemble.

The graph is searched once per program.  Every automorphism found is
converted to an atom permutation and re-validated as a syntactic symmetry
before anything is built from it; permutations failing the gate are
dropped and kept aside, so a detection bug can only weaken the breaking,
never corrupt it.  Binary clauses pair each emitted level's base atom v
with the rest of its orbit under the level's generators, which are the
validated ones that move no atom ranked below v, read off one `Orbits`.
Syntactic symmetries form a group, so every orbit point is reached by a
symmetry that fixes everything ranked below v.  A level pairs v with
its whole orbit even where a row chain already orders the pair, so
``assemble`` appends only the transitive reduction of all binary
constraints, and counts the ones it drops in ``BreakResult.implied``.
Binary implications with the same transitive closure have the same
models and propagate the same literals, so that changes no answer set.
The constraint head is not chosen here: ``FreshAtoms`` takes it from the
program's view.
"""

import gc
from typing import NamedTuple

from .automorphism import GeneratorSearch, Orbits, find_generators
from .breaking import (FreshAtoms, assemble, binary_rules, break_rows,
                       lex_leader_rules)
from .encoding import encode_program
from .smodels import GroundProgram
from .symmetry import (AtomOrder, AtomPermutation, RowMatrix, choose_order,
                       detect_rows, is_syntactic_symmetry, restrict_to_atoms,
                       stabilizer_binary_symmetries)


class BreakConfig(NamedTuple):
    """Run settings; ``stabilizer_levels=0`` turns binary clauses off.
    A negative ``aux_limit`` or ``stabilizer_levels`` reads as 0."""

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
    """The broken program and what built it.  ``pairs`` lists every level
    pair; ``implied`` counts the binary constraints that ``assemble``
    dropped because the other appended ones imply them."""

    program: GroundProgram
    detection: Detection
    rows: list[RowMatrix]
    order: AtomOrder
    pairs: list[tuple[int, int]]
    implied: int


def detect_symmetries(program: GroundProgram, config: BreakConfig = None) -> Detection:
    config = config or BreakConfig()
    if program.problems:
        raise ValueError(f"invalid program: {list(program.problems)}")
    # encoding and search build no reference cycles, so a paused collector
    # holds back no garbage and skips re-walking their short-lived tuples;
    # the graph is gone before it resumes, so it has little left to walk
    collecting = gc.isenabled()
    gc.disable()
    try:
        graph = encode_program(program)
        search = find_generators(graph, config.search_budget)
        perms = [restrict_to_atoms(graph, node_perm) for node_perm in search.generators]
        del graph
    finally:
        if collecting:
            gc.enable()
    generators = []
    rejected = []
    for perm in perms:
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

    # a level's generators are the next level's and those moving its base
    # atom: fed from the last level up (all new, with no pair yet), each once
    levels = stabilizer_binary_symmetries(gens, order, config.stabilizer_levels)
    orbits = Orbits()
    pairs = []
    for v, fixing in reversed(levels):
        for g in fixing:
            if not pairs or v in g.moved:
                orbits.merge(g.moved)
        pairs[:0] = [(v, w) for w in orbits.orbit(v) if w != v]

    alloc = FreshAtoms(program)
    fragments = []
    for matrix in rows:
        fragments += break_rows(matrix, order, config.aux_limit, alloc)
    for g in gens:
        if not any(matrix.permutes_rows(g) for matrix in rows):
            fragments.append(lex_leader_rules(g, order, config.aux_limit, alloc))
    if pairs:
        fragments.append(binary_rules(pairs, alloc))

    augmented, implied = assemble(program, fragments, alloc)
    return BreakResult(augmented, detection, rows, order, pairs, implied)
