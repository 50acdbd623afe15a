"""Graph encoding: structure, census, and the symmetry correspondence."""

import random
from itertools import permutations

import pytest

from symbreak import (GroundProgram, MinimizeStatement, WeightRule,
                      encode_program, is_syntactic_symmetry, parse_program,
                      restrict_to_atoms, semantic_view)
from symbreak.encoding import (ATOM_COLOR, BODY_COLOR, CHOICE_HEAD_COLOR,
                               HEAD_COLOR, MINIMIZE_COLOR, NEGATION_COLOR,
                               dump_graph)
from symbreak.symmetry import AtomPermutation
from graph_oracles import (atom_node, brute_force_automorphisms, build_graph,
                           color_census, negation_node,
                           reference_encode_program)
from programs import (SMODELS_CORPUS, corpus, p1, p3, p5, random_program,
                      with_repeated_atoms)


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
    assert negation_node(g, 1) in g.adjacency[atom_node(g, 1)]
    autos = brute_force_automorphisms(g)
    assert len(autos) == 2
    swaps = [restrict_to_atoms(g, a) for a in autos]
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
    swaps = [restrict_to_atoms(g, a) for a in brute_force_automorphisms(g)]
    assert AtomPermutation({1: 2, 2: 1}) in swaps


def test_p3_constraint_head_has_no_literal_edge():
    g = encode_program(p3())
    assert g.n_nodes == 10  # false atom contributes no nodes
    head_nodes = [v for v, c in enumerate(g.colors) if c == HEAD_COLOR]
    assert len(head_nodes) == 1
    assert len(g.neighbors[head_nodes[0]]) == 1  # only the body edge
    swaps = [restrict_to_atoms(g, a) for a in brute_force_automorphisms(g)]
    assert AtomPermutation({2: 3, 3: 2}) in swaps


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
    assert atom_node(g, 2) in g.adjacency[term]


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
    swaps = [restrict_to_atoms(g, a) for a in brute_force_automorphisms(g)]
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
    search (duplicate-free bodies, as grounders emit).
    """
    rng = random.Random(20270)
    checked = 0
    for _ in range(300):
        program = random_program(rng)
        sem = semantic_view(program)
        atoms = [a for a in sem.atoms if a <= program.max_atom]
        if not 2 <= len(atoms) <= 5:
            continue
        g = encode_program(program)
        try:
            autos = brute_force_automorphisms(g, budget=10 ** 6)
        except Exception:
            continue
        restrictions = {restrict_to_atoms(g, a).key() for a in autos}
        syntactic = set()
        for image in permutations(atoms):
            perm = AtomPermutation(dict(zip(atoms, image)))
            if is_syntactic_symmetry(program, perm):
                syntactic.add(perm.key())
        assert restrictions == syntactic, program
        checked += 1
    assert checked >= 40


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
