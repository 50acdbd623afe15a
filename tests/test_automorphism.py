"""Refinement, the search engine, the brute-force oracle, orbits, stabilizers."""

import random

import pytest

from symbreak import (GroundProgram, brute_force_automorphisms, color_refine,
                      encode_program, find_generators, orbit)
from symbreak.automorphism import (EnumerationBudgetError, OrderedPartition,
                                   group_closure, identity, is_automorphism,
                                   partition_by_colors)
from symbreak.encoding import build_graph, fix_nodes
from programs import p1, pigeonhole, place_atom, random_colored_graph


def triangle_tail_graph():
    """Six same-colored nodes with trivial automorphism group: a triangle
    carrying tails of different lengths on two of its corners."""
    return build_graph([1] * 6, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (4, 5)])


def test_refine_keeps_interchangeable_atoms_together():
    g = encode_program(p1())
    refined = color_refine(g, partition_by_colors(g))
    assert len(refined.cells) == 4
    assert (0, 2) in refined.cells  # the two atom nodes stay one cell


def test_refine_splits_path_endpoints():
    g = build_graph([1, 1, 1], [(0, 1), (1, 2)])
    refined = color_refine(g, partition_by_colors(g))
    assert refined.cells == ((0, 2), (1,))


def test_refine_idempotent_and_discrete_fixed():
    g = build_graph([1, 1, 1], [(0, 1), (1, 2)])
    once = color_refine(g, partition_by_colors(g))
    assert color_refine(g, once) == once
    discrete = OrderedPartition(((0,), (1,), (2,)))
    assert color_refine(g, discrete) == discrete


def test_refine_output_is_coarsest_equitable():
    rng = random.Random(7)
    for _ in range(30):
        g = random_colored_graph(rng, max_nodes=10)
        refined = color_refine(g, partition_by_colors(g))
        index = {v: i for i, cell in enumerate(refined.cells) for v in cell}

        def equitable(cells):
            idx = {v: i for i, cell in enumerate(cells) for v in cell}
            for cell in cells:
                seen = None
                for v in cell:
                    sig = sorted(idx[u] for u in g.neighbors[v])
                    if seen is None:
                        seen = sig
                    elif sig != seen:
                        return False
            return True

        assert equitable(refined.cells)
        # merging any two cells of one original color breaks equitability
        cells = list(refined.cells)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if g.colors[cells[i][0]] != g.colors[cells[j][0]]:
                    continue
                merged = [c for k, c in enumerate(cells) if k not in (i, j)]
                merged.append(tuple(sorted(cells[i] + cells[j])))
                assert not equitable(merged)


def test_brute_force_single_edge():
    g = build_graph([1, 1], [(0, 1)])
    assert brute_force_automorphisms(g) == [(0, 1), (1, 0)]


def test_brute_force_colors_forbid_swap():
    g = build_graph([1, 2], [])
    assert brute_force_automorphisms(g) == [(0, 1)]


def test_brute_force_p1():
    assert len(brute_force_automorphisms(encode_program(p1()))) == 2


def test_brute_force_budget():
    g = build_graph([1] * 16, [])
    with pytest.raises(EnumerationBudgetError):
        brute_force_automorphisms(g, budget=1000)


def test_find_generators_p1():
    g = encode_program(p1())
    result = find_generators(g)
    assert result.complete
    assert len(result.generators) == 1
    gen = result.generators[0]
    assert gen[g.atom_node(1)] == g.atom_node(2)


def test_find_generators_asymmetric_graph():
    g = triangle_tail_graph()
    assert brute_force_automorphisms(g) == [identity(6)]
    assert find_generators(g).generators == ()


def test_find_generators_all_verified():
    rng = random.Random(11)
    for _ in range(40):
        g = random_colored_graph(rng)
        for gen in find_generators(g).generators:
            assert is_automorphism(g, gen)


def test_find_generators_budget_flag():
    g = build_graph([1] * 8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    result = find_generators(g, max_tree_nodes=3)
    assert not result.complete


def test_find_generators_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        g = random_colored_graph(rng)
        assert find_generators(g).generators == find_generators(g).generators


def test_generated_group_matches_brute_force():
    rng = random.Random(20268)
    for _ in range(60):
        g = random_colored_graph(rng)
        brute = set(brute_force_automorphisms(g))
        gens = find_generators(g).generators
        assert group_closure(gens, g.n_nodes) == brute, (g.colors, sorted(g.edges()))


def test_pigeonhole_group_order():
    g = encode_program(pigeonhole(3, 2))
    gens = find_generators(g).generators
    atom_images = {tuple(gen[2 * i] for i in range(len(g.atoms))) for gen in gens}
    closure = group_closure(gens, g.n_nodes)
    assert len({tuple(p[2 * i] for i in range(len(g.atoms))) for p in closure}) >= 12


def test_orbit_trivial_and_p1():
    assert orbit([], 3) == frozenset({3})
    g = encode_program(p1())
    gens = find_generators(g).generators
    assert orbit(gens, g.atom_node(1)) == {g.atom_node(1), g.atom_node(2)}


def test_orbit_pigeonhole_covers_all_placements():
    php = pigeonhole(3, 2)
    g = encode_program(php)
    gens = find_generators(g).generators
    seed = g.atom_node(place_atom(3, 2, 1, 1))
    reached = orbit(gens, seed)
    placements = {g.atom_node(place_atom(3, 2, p, h))
                  for p in (1, 2, 3) for h in (1, 2)}
    assert placements <= reached
    assert reached <= set(range(2 * len(g.atoms)))  # literal nodes only


def test_fix_nodes_single_edge():
    g = build_graph([1, 1], [(0, 1)])
    fixed = fix_nodes(g, [0, 1])
    assert brute_force_automorphisms(fixed) == [(0, 1)]


def test_fix_nodes_empty_is_identity():
    g = build_graph([1, 1], [(0, 1)])
    assert fix_nodes(g, []) is g


def test_fix_nodes_kills_p1_swap():
    g = encode_program(p1())
    pinned = fix_nodes(g, [g.atom_node(1)])
    assert find_generators(pinned).generators == ()
