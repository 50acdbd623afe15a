"""Graph encoding: structure, census, and the symmetry correspondence."""

import random
from itertools import permutations

import pytest

from symbreak import (BasicRule, ChoiceRule, GroundProgram, MinimizeStatement,
                      WeightRule, encode_program, is_syntactic_symmetry, parse_program,
                      restrict_to_atoms, semantic_view)
from symbreak.encoding import (ATOM_COLOR, BODY_COLOR, CHOICE_HEAD_COLOR,
                               HEAD_COLOR, MINIMIZE_COLOR, NEGATION_COLOR,
                               dump_graph)
from symbreak.symmetry import AtomPermutation
from graph_oracles import (atom_node, brute_force_automorphisms, build_graph,
                           color_census, map_atoms, moved_map, negation_node,
                           reference_encode_program)
from programs import (SMODELS_CORPUS, corpus, p1, p3, p5, random_program,
                      with_repeated_atoms, workload_instances)


def test_empty_program_gives_empty_graph():
    g = encode_program(GroundProgram())
    assert g.n_nodes == 0
    assert color_census(g) == {}


def test_p1_graph_structure():
    g = encode_program(p1())
    assert g.n_nodes == 8
    assert color_census(g) == {ATOM_COLOR: 2, NEGATION_COLOR: 2,
                               BODY_COLOR: 2, CHOICE_HEAD_COLOR: 2}
    # atom nodes pair with their negations
    assert negation_node(g, 1) in g.neighbors[atom_node(g, 1)]
    autos = brute_force_automorphisms(g)
    assert len(autos) == 2
    swaps = [restrict_to_atoms(g, moved_map(a)) for a in autos]
    assert AtomPermutation({1: 2, 2: 1}) in swaps
    # negation consistency: the image of an atom node fixes its negation
    for auto in autos:
        for atom in (1, 2):
            image = g.node_atom(auto[atom_node(g, atom)])
            assert auto[negation_node(g, atom)] == negation_node(g, image)


def test_p5_facts_get_head_and_body_nodes():
    g = encode_program(p5())
    assert color_census(g) == {ATOM_COLOR: 2, NEGATION_COLOR: 2,
                               HEAD_COLOR: 2, BODY_COLOR: 2}
    swaps = [restrict_to_atoms(g, moved_map(a)) for a in brute_force_automorphisms(g)]
    assert AtomPermutation({1: 2, 2: 1}) in swaps


def test_p3_constraint_head_has_no_literal_edge():
    # the binary constraint <- p, q is one edge between the positive nodes
    g = encode_program(p3())
    assert g.n_nodes == 8  # false atom and constraint contribute no nodes
    assert HEAD_COLOR not in color_census(g)
    assert atom_node(g, 3) in g.neighbors[atom_node(g, 2)]
    swaps = [restrict_to_atoms(g, moved_map(a)) for a in brute_force_automorphisms(g)]
    assert AtomPermutation({2: 3, 3: 2}) in swaps
    # <- p, not q keeps its rule nodes, and its head only the body edge
    g = encode_program(GroundProgram(rules=(BasicRule(1, (2,), (3,)),) + p3().rules[1:]))
    assert g.n_nodes == 10
    head_nodes = [v for v, c in enumerate(g.colors) if c == HEAD_COLOR]
    assert len(head_nodes) == 1
    assert len(g.neighbors[head_nodes[0]]) == 1


def test_cardinality_body_color_depends_on_bound():
    from symbreak import CardinalityRule
    p = GroundProgram(rules=(CardinalityRule(1, 2, (2, 3)),
                             CardinalityRule(1, 3, (2, 3))))
    g = encode_program(p)
    census = color_census(g)
    assert census[HEAD_COLOR] == 2
    # bounds 2 and 3 get distinct value colors
    assert census[7] == 1 and census[8] == 1


def test_weight_rule_term_nodes():
    p = GroundProgram(rules=(WeightRule(1, 4, (2,), (3,), (5, 6)),))
    g = encode_program(p)
    census = color_census(g)
    # values 4, 5, 6 -> colors 7, 8, 9; body node colored by the bound
    assert census[7] == 1 and census[8] == 1 and census[9] == 1
    # term node for weight 6 connects literal 2's positive node and the body
    term = g.colors.index(9)
    assert atom_node(g, 2) in g.neighbors[term]


def test_shared_value_color_for_bound_and_weight():
    p = GroundProgram(rules=(WeightRule(1, 2, (2,), (), (2,)),))
    g = encode_program(p)
    assert color_census(g)[7] == 2  # one color for the integer 2, used twice


def test_minimize_node():
    p = GroundProgram(rules=(MinimizeStatement((1,), (2,), (3, 3)),))
    g = encode_program(p)
    census = color_census(g)
    assert census[MINIMIZE_COLOR] == 1
    assert HEAD_COLOR not in census
    assert census[7] == 2  # two weight-3 term nodes


def test_constraint_headed_aggregate_skips_head_edge():
    # a cardinality rule heading the reserved atom is still a constraint
    from symbreak import CardinalityRule, ChoiceRule
    p = GroundProgram(rules=(CardinalityRule(1, 2, (2, 3)),
                             ChoiceRule((2,)), ChoiceRule((3,))))
    assert p.false_atom == 1
    g = encode_program(p)
    assert g.atoms == (2, 3)
    head = g.colors.index(HEAD_COLOR)
    assert len(g.neighbors[head]) == 1
    swaps = [restrict_to_atoms(g, moved_map(a)) for a in brute_force_automorphisms(g)]
    assert AtomPermutation({2: 3, 3: 2}) in swaps


def test_census_sums_to_node_count():
    for program in (p1(), p3(), p5()):
        g = encode_program(program)
        assert sum(color_census(g).values()) == g.n_nodes


def test_dump_graph_format():
    g = build_graph([1, 1], [(0, 1)])
    assert dump_graph(g) == "node 0 1\nnode 1 1\nedge 0 1\n"


def test_automorphism_restrictions_are_exactly_the_syntactic_symmetries():
    """Soundness and completeness of the reduction on small random programs.

    The atom restrictions of the graph's automorphism group must coincide
    with the set of syntactic symmetries found by exhaustive permutation
    search over the atoms the program's rules mention (duplicate-free
    bodies, as grounders emit); an atom no rule mentions has no node, and
    moving it changes no rule.  The enumeration's budget bounds the
    product of colour-class factorials, not the work: that product
    reaches about 1.3e16 here while each search stays small, so a budget
    of 10**17 lets all 180 draws with 2 to 5 mentioned atoms be checked.
    """
    rng = random.Random(20270)
    checked = 0
    for _ in range(300):
        program = random_program(rng)
        atoms = semantic_view(program).atoms
        if not 2 <= len(atoms) <= 5:
            continue
        g = encode_program(program)
        autos = brute_force_automorphisms(g, budget=10 ** 17)
        restrictions = {restrict_to_atoms(g, moved_map(a)).key() for a in autos}
        syntactic = set()
        for image in permutations(atoms):
            perm = AtomPermutation(dict(zip(atoms, image)))
            if is_syntactic_symmetry(program, perm):
                syntactic.add(perm.key())
        assert restrictions == syntactic, program
        checked += 1
    assert checked == 180


def test_neighbor_tuples_strictly_ascend():
    """The automorphism check compares sorted neighbor images with these
    tuples, so each must ascend with no repeat."""
    for program in [*corpus(), *workload_instances(range(1, 5))]:
        graph = encode_program(program)
        for ns in graph.neighbors:
            assert all(u < v for u, v in zip(ns, ns[1:])), (program, ns)


def test_encode_matches_reference():
    """The same graph as the edge-set encoder on the corpus, on the wire
    corpus, and with literals repeated within a rule."""
    programs = corpus() + [parse_program(doc) for doc in SMODELS_CORPUS]
    programs += [with_repeated_atoms(program) for program in programs]
    repeats = 0
    for program in programs:
        graph = encode_program(program)
        assert graph == reference_encode_program(program), program
        repeats += any(len(set(r.pos)) < len(r.pos) for r in program.rules)
    assert repeats > 100


def syntactic_symmetries(program: GroundProgram) -> set:
    """Keys of every atom permutation that passes the gate, by brute force."""
    atoms = semantic_view(program).atoms
    out = set()
    for image in permutations(atoms):
        perm = AtomPermutation(dict(zip(atoms, image)))
        if is_syntactic_symmetry(program, perm):
            out.add(perm.key())
    return out


def automorphism_restrictions(graph) -> set:
    # the class-factorial space is large, but each node meets a mapped
    # neighbour, which prunes all but a few candidates
    autos = brute_force_automorphisms(graph, budget=10 ** 30)
    return {restrict_to_atoms(graph, moved_map(a)).key() for a in autos}


def literal_edges(graph) -> set:
    """Edges between two literal nodes other than an atom's own pair."""
    n = 2 * len(graph.atoms)
    return {(u, v) for u, v in graph.edges() if v < n and v != u ^ 1}


def test_repeated_binary_constraint_keeps_its_rule_nodes():
    # <- a, b twice beside one <- c, d: an edge for c, d would look like
    # one for a, b, though the gate counts the copies
    a, b, c, d = 2, 3, 4, 5
    program = GroundProgram(rules=tuple(ChoiceRule((x,)) for x in (a, b, c, d))
                            + (BasicRule(1, (a, b)), BasicRule(1, (b, a)),
                               BasicRule(1, (c, d))))
    g = encode_program(program)
    assert color_census(g)[HEAD_COLOR] == 2
    assert literal_edges(g) == {(atom_node(g, c), atom_node(g, d))}
    restrictions = automorphism_restrictions(g)
    assert AtomPermutation({a: c, b: d, c: a, d: b}).key() not in restrictions
    assert AtomPermutation({a: b, b: a}).key() in restrictions
    assert restrictions == syntactic_symmetries(program)


@pytest.mark.parametrize("constraints, compute_minus", [
    ((BasicRule(1, (2,), (3,)),), (1,)),
    ((BasicRule(1, (2, 2)),), (1,)),
    ((BasicRule(1, (), (3, 3)),), (1,)),
    ((), (1, 2)),  # B- 2 folds into the constraint <- 2
], ids=["pos-neg", "one-atom", "one-atom-negative", "compute-block"])
def test_mixed_sign_and_one_atom_constraints_keep_their_rule_nodes(constraints, compute_minus):
    program = GroundProgram(rules=(ChoiceRule((2,)), ChoiceRule((3,))) + constraints,
                            compute_minus=compute_minus)
    g = encode_program(program)
    assert color_census(g)[HEAD_COLOR] == 1
    assert not literal_edges(g)
    assert automorphism_restrictions(g) == syntactic_symmetries(program)


def binary_constraint_program(rng: random.Random) -> GroundProgram:
    """A small program built mostly from binary constraints on atom 1:
    both polarities, mixed signs, one-atom bodies and repeated copies,
    beside a few choices and basic rules."""
    atoms = range(2, 2 + rng.randint(2, 4))
    rules = [ChoiceRule((x,)) for x in atoms if rng.random() < 0.6]
    for _ in range(rng.randint(1, 5)):
        x, y = rng.sample(atoms, 2) if rng.random() < 0.85 else [rng.choice(atoms)] * 2
        shape = rng.random()
        if shape < 0.1:
            rule = BasicRule(x, (y,))
        elif shape < 0.45:
            rule = BasicRule(1, (x, y))
        elif shape < 0.8:
            rule = BasicRule(1, (), (x, y))
        else:
            rule = BasicRule(1, (x,), (y,))
        if any(r.key() == rule.key() for r in rules):
            continue  # at most two copies, so the group stays enumerable
        rules.append(rule)
        if rng.random() < 0.3:
            rules.append(rule._replace(pos=rule.pos[::-1], neg=rule.neg[::-1]))
    if rng.random() < 0.5:
        # add the image under a swap of each rule whose image is missing,
        # so the swap is often a symmetry and copies stay two at most
        x, y = rng.sample(atoms, 2)
        swap = {x: y, y: x}
        keys = {r.key() for r in rules}
        images = [map_atoms(r, lambda a: swap.get(a, a)) for r in rules]
        rules += [r for r in images if r.key() not in keys]
    return GroundProgram(rules=rules, compute_minus=(1,))


def test_binary_constraint_graphs_have_exactly_the_syntactic_symmetries():
    rng = random.Random(2002)
    edged = repeated = kept = symmetric = 0
    for _ in range(300):
        program = binary_constraint_program(rng)
        g = encode_program(program)
        assert g == reference_encode_program(program), program
        restrictions = automorphism_restrictions(g)
        assert restrictions == syntactic_symmetries(program), program
        edged += bool(literal_edges(g))
        repeated += len({r.key() for r in program.view.rules}) < len(program.rules)
        kept += HEAD_COLOR in color_census(g)
        symmetric += len(restrictions) > 1
    assert min(edged, repeated, kept, symmetric) >= 100, (edged, repeated, kept, symmetric)
