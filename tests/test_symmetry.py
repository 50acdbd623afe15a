"""Atom permutations, the syntactic-symmetry gate, rows, orders, stabilizers."""

import random
import time
from collections import Counter
from math import factorial, prod

import pytest

from symbreak import (BasicRule, CardinalityRule, ChoiceRule, GroundProgram,
                      WeightRule, break_program, choose_order, detect_rows,
                      encode_program, find_generators, is_syntactic_symmetry,
                      orbit, restrict_to_atoms, stabilizer_binary_symmetries,
                      symmetry)
from symbreak.encoding import fix_nodes
from symbreak.pipeline import detect_symmetries
from symbreak.smodels import semantic_view
from symbreak.symmetry import AtomOrder, AtomPermutation, RowMatrix
from graph_oracles import (EnumerationBudgetError, atom_node, compose,
                           compose_atoms, group_closure, group_order, identity,
                           reference_detect_rows,
                           reference_is_syntactic_symmetry)
from programs import (corpus, free_choice, p1, p2, p3, p4, p5, pigeonhole,
                      place_atom, random_program, workload_instances)

CHAIN_CASES = [p1(), p2(), p3(), p4(), p5(), pigeonhole(3, 3), pigeonhole(4, 3),
               free_choice(range(1, 7))]
CHAIN_CASES += [random_program(random.Random(i)) for i in range(50)]


def swap(a, b):
    return AtomPermutation({a: b, b: a})


def level_pairs(levels):
    """Each level's base atom paired with the rest of its orbit under the
    level's generators, in ascending atom order."""
    return [(v, w) for v, strong in levels for w in sorted(orbit(strong, v) - {v})]


def assert_certifiable(program, order, levels):
    """Every generator of a level passes the gate and fixes every atom
    ranked below the level's base atom, earlier base atoms included."""
    for v, strong in levels:
        for s in strong:
            assert is_syntactic_symmetry(program, s), (v, s)
            assert all(order.rank[a] >= order.rank[v] for a in s.support), (v, s)


def test_atom_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        AtomPermutation({1: 2, 3: 2})


def test_atom_permutation_drops_fixed_points():
    perm = AtomPermutation({1: 1, 2: 3, 3: 2})
    assert perm.support == {2, 3}


def test_atom_permutation_cycles_and_composition():
    perm = AtomPermutation.from_cycles((1, 2, 3), (5, 6))
    assert perm.cycles() == [(1, 2, 3), (5, 6)]
    assert perm.cycle_of(2) == (2, 3, 1)
    assert not perm.is_involution()
    assert swap(1, 2).is_involution()


def test_restrict_to_atoms_p1_swap():
    g = encode_program(p1())
    gens = find_generators(g).generators
    assert restrict_to_atoms(g, gens[0]) == swap(1, 2)


def test_restrict_identity_is_empty():
    g = encode_program(p1())
    assert restrict_to_atoms(g, identity(g.n_nodes)).is_identity


def test_restrict_pigeonhole_hole_swap_moves_columns():
    php = pigeonhole(3, 2)
    det = detect_symmetries(php)
    hole_swap = AtomPermutation({place_atom(3, 2, p, 1): place_atom(3, 2, p, 2)
                                 for p in (1, 2, 3)}
                                | {place_atom(3, 2, p, 2): place_atom(3, 2, p, 1)
                                   for p in (1, 2, 3)})
    assert hole_swap in det.generators


def test_is_syntactic_symmetry_p2():
    assert is_syntactic_symmetry(p2(), swap(1, 2))
    assert not is_syntactic_symmetry(p2(), swap(1, 3))
    assert is_syntactic_symmetry(p2(), AtomPermutation({}))


def test_is_syntactic_symmetry_never_moves_false_atom():
    # in P3 atom 1 is the constraint head; even a structurally plausible
    # relabeling touching it is rejected
    assert not is_syntactic_symmetry(p3(), swap(1, 2))
    assert is_syntactic_symmetry(p3(), swap(2, 3))


def test_is_syntactic_symmetry_weight_pairs():
    base = GroundProgram(rules=(WeightRule(3, 2, (1, 2), (), (1, 2)),
                                ChoiceRule((1,)), ChoiceRule((2,))))
    # swapping the atoms maps weight 1 onto weight 2: not a symmetry
    assert not is_syntactic_symmetry(base, swap(1, 2))
    even = GroundProgram(rules=(WeightRule(3, 2, (1, 2), (), (2, 2)),
                                ChoiceRule((1,)), ChoiceRule((2,))))
    assert is_syntactic_symmetry(even, swap(1, 2))


def test_is_syntactic_symmetry_counts_duplicate_literals():
    p = GroundProgram(rules=(CardinalityRule(3, 2, (1, 1)),
                             CardinalityRule(4, 2, (2,))))
    assert not is_syntactic_symmetry(p, AtomPermutation({1: 2, 2: 1, 3: 4, 4: 3}))


def test_is_syntactic_symmetry_respects_compute_blocks():
    p = GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,))),
                      compute_plus=(1,))
    assert not is_syntactic_symmetry(p, swap(1, 2))
    assert is_syntactic_symmetry(p1(), swap(1, 2))


@pytest.fixture(scope="module")
def reference_corpus():
    """The golden inputs and more, each with its validated generators."""
    return [(program, detect_symmetries(program).generators) for program in corpus()]


def gate_probes(rng, program, gens):
    """Identity, generators and their products, generators spoiled by a
    transposition, random cycles (reaching atom 0 and past max_atom) and
    swaps moving the false atom."""
    top = program.max_atom + 1
    probes = [AtomPermutation({})]
    probes += gens
    for _ in range(4):
        if gens:
            probes.append(compose_atoms(rng.choice(gens), rng.choice(gens)))
            spoiler = swap(*rng.sample(range(1, top), 2)) if top > 2 else swap(1, 2)
            probes.append(compose_atoms(rng.choice(gens), spoiler))
        cycle = tuple(rng.sample(range(0, top + 2), min(rng.randint(2, 4), top + 2)))
        probes.append(AtomPermutation.from_cycles(cycle))
    false = semantic_view(program).false_atom
    if false is not None:
        probes += [swap(false, a) for a in rng.sample(range(1, top + 1), min(3, top))
                   if a != false]
    return probes


def test_gate_matches_whole_program_reference(reference_corpus):
    rng = random.Random(5)
    verdicts = Counter()
    for program, gens in reference_corpus:
        for perm in gate_probes(rng, program, gens):
            verdict = is_syntactic_symmetry(program, perm)
            assert verdict == reference_is_syntactic_symmetry(program, perm), (program, perm)
            verdicts[verdict] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_gate_index_is_per_program():
    base = p2()
    broken = base._replace(rules=base.rules + (BasicRule(4, (1,)),))
    assert is_syntactic_symmetry(base, swap(1, 2))
    assert not is_syntactic_symmetry(broken, swap(1, 2))
    assert is_syntactic_symmetry(base, swap(1, 2))
    assert base.view is base.view
    assert base.view is not broken.view


def test_row_matrix_validation():
    with pytest.raises(ValueError):
        RowMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        RowMatrix(((1, 2), (2, 3)))


def test_row_matrix_swaps_and_membership():
    m = RowMatrix(((1, 2), (3, 4), (5, 6)))
    assert m.adjacent_swap(0) == AtomPermutation({1: 3, 3: 1, 2: 4, 4: 2})
    rotation = AtomPermutation.from_cycles((1, 3, 5), (2, 4, 6))
    assert m.row_map_of(rotation) == {0: 1, 1: 2, 2: 0}
    # a column swap is not a row permutation
    assert m.row_map_of(AtomPermutation.from_cycles((1, 2))) is None


def test_detect_rows_pigeonhole_3_2():
    php = pigeonhole(3, 2)
    rows = detect_rows(php, detect_symmetries(php).generators)
    assert len(rows) == 1
    matrix = rows[0]
    assert matrix.n_rows == 3 and len(matrix.rows[0]) == 2
    expected = {frozenset(place_atom(3, 2, p, h) for h in (1, 2))
                for p in (1, 2, 3)}
    assert {frozenset(r) for r in matrix.rows} == expected


def test_detect_rows_pigeonhole_4_3_keeps_larger():
    php = pigeonhole(4, 3)
    rows = detect_rows(php, detect_symmetries(php).generators)
    assert len(rows) == 1
    assert rows[0].n_rows == 4  # pigeon matrix beats the 3-row hole matrix
    assert rows[0].atoms == frozenset(range(2, 14))


def test_detect_rows_needs_three_rows():
    assert detect_rows(p1(), detect_symmetries(p1()).generators) == []


def test_detect_rows_no_symmetry():
    p = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2)))
    assert detect_rows(p, []) == []


def test_detect_rows_every_pairwise_swap_is_symmetric():
    php = pigeonhole(4, 3)
    matrix = detect_rows(php, detect_symmetries(php).generators)[0]
    for i in range(matrix.n_rows):
        for j in range(i + 1, matrix.n_rows):
            assert is_syntactic_symmetry(php, matrix.row_swap(i, j))


def matrix_atoms(rows) -> int:
    return sum(len(m.atoms) for m in rows)


def test_detect_rows_covers_pool_reference(reference_corpus, monkeypatch):
    """At least the atoms of the g-squared pool's matrices, more on some
    programs, and every gate call it makes gets the whole-program
    verdict.  Free choice over 12 to 19 atoms widens the corpus: five of
    those grow rows the pool misses."""
    calls = []
    real_gate = symmetry.is_syntactic_symmetry

    def recorded(program, perm):
        verdict = real_gate(program, perm)
        calls.append((program, perm, verdict))
        return verdict

    monkeypatch.setattr(symmetry, "is_syntactic_symmetry", recorded)
    tall = more = 0
    wide = [free_choice(range(1, k)) for k in range(13, 21)]
    for program, gens in reference_corpus + [(p, detect_symmetries(p).generators)
                                             for p in wide]:
        rows = detect_rows(program, gens)
        covered = matrix_atoms(reference_detect_rows(program, gens))
        assert matrix_atoms(rows) >= covered, program
        more += matrix_atoms(rows) > covered
        tall += any(m.n_rows > 3 for m in rows)
    assert tall >= 10 and more >= 10
    assert calls
    for program, perm, verdict in calls:
        assert verdict == reference_is_syntactic_symmetry(program, perm)


def test_detect_rows_asks_each_permutation_once(monkeypatch):
    """Within one call every distinct swap goes to the gate once; a second
    call asks again, as no verdict outlives the call."""
    asked = []
    real_gate = symmetry.is_syntactic_symmetry

    def recorded(program, perm):
        asked.append(perm.key())
        return real_gate(program, perm)

    monkeypatch.setattr(symmetry, "is_syntactic_symmetry", recorded)
    for program in (pigeonhole(6, 5), free_choice(range(1, 17))):
        gens = detect_symmetries(program).generators
        calls = []
        for _ in range(2):
            asked.clear()
            rows = detect_rows(program, gens)
            assert len(asked) == len(set(asked)), program
            calls.append(sorted(asked))
        assert calls[0] == calls[1] and len(calls[0]) >= 10
        assert matrix_atoms(rows) >= matrix_atoms(reference_detect_rows(program, gens))


@pytest.mark.parametrize("n", [16, 40])
def test_detect_rows_gate_calls_stay_linear(monkeypatch, n):
    """n interchangeable atoms: every involution seed regrows the first
    seed's rows, whose swaps need no gate, so the gate sees at most 2n
    swaps (n(n-1)/2 when each seed asked it again: 120 and 780)."""
    calls = []
    real_gate = symmetry.is_syntactic_symmetry

    def counting(program, perm):
        calls.append(perm)
        return real_gate(program, perm)

    program = free_choice(range(1, n + 1))
    gens = detect_symmetries(program).generators
    monkeypatch.setattr(symmetry, "is_syntactic_symmetry", counting)
    rows = detect_rows(program, gens)
    assert [m.rows for m in rows] == [tuple((a,) for a in range(1, n + 1))]
    assert len(calls) <= 2 * n


def test_detect_rows_grows_from_every_accepted_row():
    """(2 3 4) takes the accepted row (2,) to (3,), and (3,) to (4,); the
    pool of products of two stops at (3,)."""
    program = free_choice(range(1, 5))
    gens = [swap(1, 2), AtomPermutation.from_cycles((2, 3, 4))]
    assert reference_detect_rows(program, gens) == [RowMatrix(((1,), (2,), (3,)))]
    assert detect_rows(program, gens) == [RowMatrix(((1,), (2,), (3,), (4,)))]


def test_detect_rows_of_s24_is_fast():
    program = free_choice(range(1, 25))
    gens = detect_symmetries(program).generators
    started = time.perf_counter()
    rows = detect_rows(program, gens)
    assert time.perf_counter() - started < 1.0
    assert [m.rows for m in rows] == [tuple((a,) for a in range(1, 25))]


def moved_atoms(gens, rows) -> set:
    return {a for g in gens for a in g.support} | {a for m in rows for a in m.atoms}


def test_choose_order_natural_without_symmetry():
    """With nothing moved, no breaking rule ranks an atom, so the order is
    empty."""
    assert choose_order([], []).sequence == ()


def test_choose_order_cycle_layout():
    """Each generator's cycles in turn, smaller supports first, and an
    atom no generator moves is left out."""
    assert choose_order([swap(1, 2)], []).sequence == (1, 2)
    order = choose_order([AtomPermutation.from_cycles((2, 4, 3))], [])
    assert order.sequence == (2, 4, 3)
    gens = [AtomPermutation.from_cycles((5, 6), (7, 8)), swap(3, 9)]
    assert choose_order(gens, []).sequence == (3, 9, 5, 6, 7, 8)


def test_choose_order_matrix_row_major():
    """Matrix atoms first, row by row, then the rest of the generators'
    support."""
    php = pigeonhole(3, 2)
    det = detect_symmetries(php)
    rows = detect_rows(php, det.generators)
    order = choose_order(det.generators, rows)
    flat = [a for row in rows[0].rows for a in row]
    assert list(order.sequence[:6]) == flat
    assert set(order.sequence) == moved_atoms(det.generators, rows)


def test_choose_order_is_bijection(reference_corpus):
    """Every atom a matrix or generator moves, each once."""
    for program, gens in reference_corpus:
        rows = detect_rows(program, gens)
        order = choose_order(gens, rows)
        assert len(set(order.sequence)) == len(order.sequence), program
        assert set(order.sequence) == moved_atoms(gens, rows), program


def test_stabilizer_pairs_p1():
    det = detect_symmetries(p1())
    order = choose_order(det.generators, [])
    levels = stabilizer_binary_symmetries(det.generators, order)
    assert levels == [(1, [swap(1, 2)])]
    assert level_pairs(levels) == [(1, 2)]


def test_stabilizer_pairs_trivial_group():
    p = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2)))
    det = detect_symmetries(p)
    order = choose_order([], [])
    assert stabilizer_binary_symmetries(det.generators, order) == []


def test_stabilizer_pairs_pigeonhole_full_orbit():
    php = pigeonhole(3, 3)
    det = detect_symmetries(php)
    rows = detect_rows(php, det.generators)
    order = choose_order(det.generators, rows)
    levels = stabilizer_binary_symmetries(det.generators, order, levels=2)
    first_atom = order.sequence[0]
    level_one = {w for v, w in level_pairs(levels) if v == first_atom}
    placements = {place_atom(3, 3, p, h) for p in (1, 2, 3) for h in (1, 2, 3)}
    assert level_one == placements - {first_atom}
    assert len(levels) == 2
    assert_certifiable(php, order, levels)


def research_pairs(program, order, levels=5):
    """Reference binary pairs from repeated graph searches.

    Each level fixes the previous base atom's node by recoloring and
    searches the graph again; the base atom is the stabilizer's first
    moved atom in ``order``, its orbit is a breadth-first search over node
    permutations, and each pair's witness word must pass the pipeline's
    gate (syntactic symmetry, nothing ranked below the base atom moved).
    """
    graph = encode_program(program)
    gens = find_generators(graph).generators
    pairs = []
    for _ in range(levels):
        moved = [graph.node_atom(v) for v in range(0, 2 * len(graph.atoms), 2)
                 if any(g[v] != v for g in gens)]
        if not moved:
            break
        v = min(moved, key=order.rank.__getitem__)
        start = atom_node(graph, v)
        words = {start: identity(graph.n_nodes)}
        frontier = [start]
        for node in frontier:
            for g in gens:
                if g[node] not in words:
                    words[g[node]] = compose(words[node], g)
                    frontier.append(g[node])
        for node in sorted(words):
            if node == start:  # colors keep the orbit on positive atom nodes
                continue
            witness = restrict_to_atoms(graph, words[node])
            if (is_syntactic_symmetry(program, witness)
                    and min(witness.support, key=order.rank.__getitem__) == v):
                pairs.append((v, graph.node_atom(node)))
        graph = fix_nodes(graph, [start])
        gens = find_generators(graph).generators
    return pairs


def test_stabilizer_chain_pairs_match_graph_research():
    """The pipeline's pairs equal the graph re-search's, and every strong
    generator of the levels they come from passes the pipeline's checks."""
    for program in CHAIN_CASES:
        result = break_program(program)
        assert result.pairs == research_pairs(program, result.order), program
        gens = result.detection.generators
        levels = stabilizer_binary_symmetries(gens, result.order, 5)
        assert level_pairs(levels) == result.pairs, program
        assert_certifiable(program, result.order, levels)


def test_stabilizer_levels_match_brute_force_stabilizers():
    """Each emitted level is the orbit of its base atom under the pointwise
    stabilizer of all earlier moved atoms, and the levels emitted are the
    first five with a nontrivial orbit."""
    checked = 0
    for program in CHAIN_CASES:
        det = detect_symmetries(program)
        order = choose_order(det.generators, detect_rows(program, det.generators))
        n = program.max_atom + 1
        dense = [tuple(g.image_of(a) for a in range(n)) for g in det.generators]
        try:
            group = group_closure(dense, n, cap=10 ** 5)
        except EnumerationBudgetError:
            continue
        expected = {}
        fixed = []
        for v in order.sort_atoms({a for g in det.generators for a in g.support}):
            stabilizer = [g for g in group if all(g[a] == a for a in fixed)]
            images = {g[v] for g in stabilizer}
            if len(images) > 1 and len(expected) < 5:
                expected[v] = images
            fixed.append(v)
        levels = {}
        for v, strong in stabilizer_binary_symmetries(det.generators, order):
            levels[v] = set(orbit(strong, v))
            for s in strong:
                assert tuple(s.image_of(a) for a in range(n)) in group, (program, s)
        assert levels == expected, program
        checked += bool(expected)
    assert checked >= 30


def test_stabilizer_levels_use_only_generators_fixing_earlier_atoms():
    """Both generators (1 2) and (1 2 3 4) move atom 1, so the only level
    is atom 1's, with orbit 1..4; no generator fixes atom 1, so atoms 2 to
    4 give no level, though the stabilizer of atom 1 is all of S{2,3,4}."""
    gens = [AtomPermutation.from_cycles((1, 2)),
            AtomPermutation.from_cycles((1, 2, 3, 4))]
    levels = stabilizer_binary_symmetries(gens, AtomOrder((1, 2, 3, 4)))
    assert levels == [(1, gens)]
    assert level_pairs(levels) == [(1, 2), (1, 3), (1, 4)]


def test_stabilizer_chain_of_s24_is_fast():
    """The star (1 i) of S24 gives one level, atom 1's; the path (i i+1)
    is a strong generating set for the base 1..24, so its first five
    levels are the stabilizer chain's, each base atom paired with every
    later atom."""
    order = AtomOrder(tuple(range(1, 25)))
    star = [AtomPermutation.from_cycles((1, i)) for i in range(2, 25)]
    path = [AtomPermutation.from_cycles((i, i + 1)) for i in range(1, 24)]
    started = time.perf_counter()
    star_levels = stabilizer_binary_symmetries(star, order)
    path_levels = stabilizer_binary_symmetries(path, order)
    assert time.perf_counter() - started < 0.5
    assert star_levels == [(1, star)]
    assert level_pairs(star_levels) == [(1, w) for w in range(2, 25)]
    assert path_levels == [(v, path[v - 1:]) for v in range(1, 6)]
    assert level_pairs(path_levels) == [
        (v, w) for v in range(1, 6) for w in range(v + 1, 25)]


def pipeline_input(program):
    """The validated generators and the atom order the pipeline hands to
    ``stabilizer_binary_symmetries``."""
    det = detect_symmetries(program)
    order = choose_order(det.generators, detect_rows(program, det.generators))
    return det.generators, order


def orbit_product(gens, order):
    """The product of the orbit sizes of every level, not only the first
    five."""
    levels = stabilizer_binary_symmetries(gens, order, len(order.sequence))
    return prod(len(orbit(fixing, v)) for v, fixing in levels)


def test_levels_multiply_to_the_order_of_the_validated_group():
    """Every level's orbit lies inside the stabilizer chain's basic orbit,
    and the basic orbits multiply to the group's order, so a product equal
    to that order makes every level the chain's: the generators fixing
    the earlier atoms form a strong generating set for the base."""
    for program in [*corpus(), *workload_instances(range(1, 5))]:
        gens, order = pipeline_input(program)
        n = program.max_atom + 1
        dense = [tuple(g.image_of(a) for a in range(n)) for g in gens]
        assert orbit_product(gens, order) == group_order(dense, n), program
    for k in range(2, 41):
        gens, order = pipeline_input(free_choice(range(1, k + 1)))
        assert orbit_product(gens, order) == factorial(k), k
    for p in range(1, 8):
        for h in range(1, p + 1):
            gens, order = pipeline_input(pigeonhole(p, h))
            assert orbit_product(gens, order) == factorial(p) * factorial(h), (p, h)


def test_pipeline_generators_all_pass_the_gate():
    for program in (p1(), p2(), p3(), pigeonhole(3, 2)):
        det = detect_symmetries(program)
        assert len(det.rejected) == 0
        for g in det.generators:
            assert is_syntactic_symmetry(program, g)
