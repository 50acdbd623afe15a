"""Refinement, the search engine, the brute-force oracle, orbits, stabilizers."""

import itertools
import random
import time
from collections import Counter
from math import factorial

import pytest

from symbreak import (ChoiceRule, GroundProgram, MinimizeStatement,
                      automorphism, color_refine, encode_program,
                      find_generators, orbit)
from symbreak.automorphism import is_automorphism, partition_by_colors
from symbreak.encoding import MINIMIZE_COLOR, fix_nodes
from graph_oracles import (EnumerationBudgetError, atom_node,
                           brute_force_automorphisms, build_graph, cells_of,
                           group_closure, group_order, identity,
                           partition_from_cells, reference_color_refine,
                           reference_find_generators)
from programs import (corpus, free_choice, p1, p2, p3, p4, p5, pigeonhole,
                      place_atom, random_colored_graph, random_program)


def triangle_tail_graph():
    """Six same-colored nodes with trivial automorphism group: a triangle
    carrying tails of different lengths on two of its corners."""
    return build_graph([1] * 6, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (4, 5)])


def test_refine_keeps_interchangeable_atoms_together():
    g = encode_program(p1())
    refined = color_refine(g, partition_by_colors(g))
    assert len(cells_of(refined)) == 4
    assert (0, 2) in cells_of(refined)  # the two atom nodes stay one cell


def test_refine_splits_path_endpoints():
    g = build_graph([1, 1, 1], [(0, 1), (1, 2)])
    refined = color_refine(g, partition_by_colors(g))
    assert cells_of(refined) == ((0, 2), (1,))


def test_refine_idempotent_and_discrete_fixed():
    g = build_graph([1, 1, 1], [(0, 1), (1, 2)])
    once = color_refine(g, partition_by_colors(g))
    assert color_refine(g, once) == once
    discrete = partition_from_cells(((0,), (1,), (2,)))
    assert color_refine(g, discrete) == discrete


def test_refine_output_is_coarsest_equitable():
    rng = random.Random(7)
    for _ in range(30):
        g = random_colored_graph(rng, max_nodes=10)
        cells = cells_of(color_refine(g, partition_by_colors(g)))

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

        assert equitable(cells)
        # merging any two cells of one original color breaks equitability
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if g.colors[cells[i][0]] != g.colors[cells[j][0]]:
                    continue
                merged = [c for k, c in enumerate(cells) if k not in (i, j)]
                merged.append(tuple(sorted(cells[i] + cells[j])))
                assert not equitable(merged)


def random_ordered_partition(rng, n):
    """The nodes shuffled and cut into consecutive cells at random points,
    each cell then sorted."""
    nodes = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    bounds = [0] + cuts + [n]
    return partition_from_cells([nodes[a:b] for a, b in zip(bounds, bounds[1:])])


def split_off(partition, v):
    """The partition with v split off its cell, just before the rest of it."""
    cells = []
    for cell in cells_of(partition):
        if v in cell and len(cell) > 1:
            cells += [(v,), tuple(w for w in cell if w != v)]
        else:
            cells.append(cell)
    return partition_from_cells(cells)


def assert_search_refines_match_reference(monkeypatch, graphs):
    """Every partition find_generators refines, refined by both versions;
    the reference gets it with the individualized vertex split off."""
    calls = []

    def recording(graph, partition, *individualized):
        result = color_refine(graph, partition, *individualized)
        for v in individualized:
            partition = split_off(partition, v)
        calls.append((partition, result))
        return result

    monkeypatch.setattr(automorphism, "color_refine", recording)
    for graph in graphs:
        calls.clear()
        find_generators(graph)
        assert calls
        for partition, result in calls:
            assert result == reference_color_refine(graph, partition), partition


def test_refine_matches_reference_on_search_calls(monkeypatch):
    programs = [p1(), p2(), p3(), p4(), p5()]
    programs += [pigeonhole(p, h) for p in range(3, 7) for h in range(3, min(p, 5) + 1)]
    programs += [free_choice(range(1, k)) for k in range(2, 18)]
    programs += [random_program(random.Random(i)) for i in range(100)]
    assert_search_refines_match_reference(monkeypatch, map(encode_program, programs))


def test_refine_matches_reference_on_fixed_node_graphs(monkeypatch):
    rng = random.Random(41)
    graphs = []
    for program in [p1(), p4(), pigeonhole(4, 3), free_choice(range(1, 7))]:
        g = encode_program(program)
        literals = range(2 * len(g.atoms))
        for k in (1, 2, 3):
            graphs.append(fix_nodes(g, rng.sample(literals, k)))
    for _ in range(30):
        g = random_colored_graph(rng)
        graphs.append(fix_nodes(g, rng.sample(range(g.n_nodes), rng.randint(1, 2))))
    assert_search_refines_match_reference(monkeypatch, graphs)


def test_refine_matches_reference_from_random_partitions():
    rng = random.Random(43)
    for _ in range(300):
        g = random_colored_graph(rng, max_nodes=rng.choice((12, 30)))
        start = random_ordered_partition(rng, g.n_nodes)
        assert color_refine(g, start) == reference_color_refine(g, start), start


@pytest.mark.parametrize("neighbors, cells", [
    # round 2 keys the marked 1 and 3 as (1, 4), and the unmarked 4 as
    # (1, 1): only the rest's key repeats a label, and by signature the
    # rest's group sorts last, against the order of the raw keys
    (((1, 2, 3), (0, 4), (0,), (0, 4), (1, 3)), ((0, 1, 2, 3, 4),)),
    # the same with a rest key of degree 3
    (((2, 3, 5), (2, 3, 4), (0, 1, 5), (0, 1, 5), (1,), (0, 2, 3)),
     ((1, 3, 5), (0, 2, 4))),
])
def test_refine_orders_by_the_rest_key_that_repeats_a_label(neighbors, cells):
    edges = {(u, v) for u, ns in enumerate(neighbors) for v in ns if u < v}
    g = build_graph([1] * len(neighbors), sorted(edges))
    assert g.neighbors == neighbors
    start = partition_from_cells(cells)
    assert color_refine(g, start) == reference_color_refine(g, start)


def test_refine_sorts_an_unsorted_cell_that_splits_in_a_later_round():
    """(4, 1, 0), sorted when the partition is built, sees one node of
    (2, 3) from each of its nodes, so it splits only after (2, 3) does;
    its fragments ascend, as the reference's do, and a cell that never
    splits is left as it is."""
    g = build_graph([1] * 6, [(0, 2), (1, 3), (2, 4)])
    start = partition_from_cells(((4, 1, 0), (2, 3), (5,)))
    refined = color_refine(g, start)
    assert refined == reference_color_refine(g, start)
    assert (0, 4) in cells_of(refined)
    start = partition_from_cells(((5, 4, 1, 0), (2, 3)))
    assert color_refine(g, start) == reference_color_refine(g, start)
    start = partition_from_cells(((4, 0), (1,), (2,), (3,), (5,)))
    assert cells_of(color_refine(g, start)) == cells_of(start)


def test_refine_keys_a_cell_of_mixed_degrees(monkeypatch):
    """The minimize statements of an empty sum, a sum of one literal and a
    sum of two literals whose nodes share a cell are one colour cell of
    nodes of degree 0, 1 and 2; the last one's key repeats a label."""
    program = GroundProgram(rules=(ChoiceRule((1, 2, 3)), MinimizeStatement(),
                                   MinimizeStatement((1,), (), (1,)),
                                   MinimizeStatement((2, 3), (), (1, 1))))
    g = encode_program(program)
    minimize = [v for v, c in enumerate(g.colors) if c == MINIMIZE_COLOR]
    assert sorted(len(g.neighbors[v]) for v in minimize) == [0, 1, 2]
    start = partition_by_colors(g)
    assert color_refine(g, start) == reference_color_refine(g, start)
    assert_search_refines_match_reference(monkeypatch, [g])


def test_refine_matches_reference_on_individualized_partitions():
    """Seeded refinement from random individualizations, down to a
    discrete partition: the vertex's singleton cell goes before or after
    the rest of its cell, in a random non-singleton cell.  The same vertex
    individualized on the partition before the split is split off first.
    Program graphs carry literal nodes for mentioned atoms only; 300
    random programs keep the count of seeded refinements above 800."""
    rng = random.Random(45)
    graphs = [encode_program(random_program(random.Random(i))) for i in range(300)]
    graphs += [encode_program(pigeonhole(4, 3)), encode_program(free_choice(range(1, 9)))]
    graphs += [random_colored_graph(rng, max_nodes=rng.choice((12, 30))) for _ in range(100)]
    seeded = 0
    for g in graphs * 3:
        partition = color_refine(g, partition_by_colors(g))
        while True:
            cells = list(cells_of(partition))
            open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
            if not open_cells:
                break
            i = rng.choice(open_cells)
            v = rng.choice(cells[i])
            rest = tuple(w for w in cells[i] if w != v)
            split = [(v,), rest] if rng.random() < 0.7 else [rest, (v,)]
            cells[i:i + 1] = split
            start = partition_from_cells(cells)
            unsplit = color_refine(g, partition, v)
            assert unsplit == reference_color_refine(g, split_off(partition, v)), (partition, v)
            partition = color_refine(g, start, v)
            assert partition == reference_color_refine(g, start), (start, v)
            seeded += 1
    assert seeded > 800


class CountingNeighbors(tuple):
    """Neighbor lists that count how often one is read."""

    reads = 0

    def __getitem__(self, i):
        CountingNeighbors.reads += 1
        return tuple.__getitem__(self, i)


def test_search_neighbour_reads_bounded():
    """Seeded refinement, skipping the largest fragment, backjumping and
    early detection off the first path read fewer neighbor lists: 2,531
    and 504 reads with all of them, 2,633 and 1,414 without early
    detection."""
    for program, bound, expected in [(pigeonhole(6, 5), 2600, (9, 50)),
                                     (free_choice(range(1, 17)), 700, (15, 45))]:
        graph = encode_program(program)
        counted = graph._replace(neighbors=CountingNeighbors(graph.neighbors))
        CountingNeighbors.reads = 0
        search = find_generators(counted)
        assert CountingNeighbors.reads <= bound
        assert (len(search.generators), search.tree_nodes) == expected


def test_refine_leaves_its_argument_unchanged():
    """Refining a partition works on a copy of its labelling."""
    rng = random.Random(49)
    for _ in range(100):
        g = random_colored_graph(rng, max_nodes=rng.choice((12, 30)))
        start = random_ordered_partition(rng, g.n_nodes)
        before = (start.labels.copy(), start.by_label.copy())
        refined = color_refine(g, start)
        assert start == before
        assert refined == reference_color_refine(g, start)


def assert_search_matches_reference(monkeypatch, graphs):
    """Under budgets that cut the search at several depths, every generator
    is an automorphism, the tree stays within the budget, and each tree
    node costs one refinement, none of which changes its argument.  Given
    the whole budget, the generators span the group of the recursive
    search's, and each joins two orbits of the group found before it."""
    calls = 0

    def counting(graph, partition, *individualized):
        nonlocal calls
        calls += 1
        before = (partition.labels.copy(), partition.by_label.copy())
        result = color_refine(graph, partition, *individualized)
        assert partition == before
        return result

    monkeypatch.setattr(automorphism, "color_refine", counting)
    cut = 0
    for graph in graphs:
        n = graph.n_nodes
        for budget in (1, 2, 5, 17, 10 ** 6):
            calls = 0
            search = find_generators(graph, max_tree_nodes=budget)
            assert all(is_automorphism(graph, g) for g in search.generators)
            assert calls == search.tree_nodes
            if search.complete:
                assert search.tree_nodes <= budget
            else:
                assert search.tree_nodes == budget + 1
                cut += 1
        assert search.complete
        reference = reference_find_generators(graph)
        order = group_order(reference.generators, n)
        assert group_order(search.generators, n) == order
        assert group_order(search.generators + reference.generators, n) == order
        orbits = {orbit(search.generators, v) for v in range(n)}
        assert len(search.generators) <= n - len(orbits)
    assert cut


def test_search_matches_reference_on_corpus(monkeypatch):
    graphs = [encode_program(program) for program in corpus()]
    assert_search_matches_reference(monkeypatch, graphs)


def test_search_matches_reference_on_random_graphs(monkeypatch):
    rng = random.Random(51)
    graphs = [random_colored_graph(rng, max_nodes=rng.choice((12, 30))) for _ in range(250)]
    assert_search_matches_reference(monkeypatch, graphs)


def circulant_graph(n, steps):
    """Node i joined to i ± s (mod n) for each step s."""
    edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
    return build_graph([1] * n, sorted(edges))


def test_search_matches_reference_on_circulant_graphs(monkeypatch):
    """Refinement splits nothing in a vertex-transitive graph, and the
    generators found move many nodes at once, so a child that inherits a
    generator moving its own base point prunes a sibling it must visit."""
    graphs = [circulant_graph(n, steps) for n in range(4, 13)
              for k in range(1, n // 2 + 1)
              for steps in itertools.combinations(range(1, n // 2 + 1), k)]
    assert_search_matches_reference(monkeypatch, graphs)


def test_search_matches_reference_on_frucht_and_rook_graphs(monkeypatch):
    """Graphs refinement splits nothing of: two Frucht graphs, whose group
    only swaps the copies, and the rook's graph beside the Shrikhande
    graph, which no automorphism maps onto each other."""
    assert_search_matches_reference(monkeypatch, [two_frucht_graphs(),
                                                  rook_and_shrikhande_graphs()])


def test_deep_search_stops_at_the_budget():
    """The first path alone is about 1,100 nodes deep; the search must stop
    at the budget, not at the recursion limit."""
    graph = encode_program(free_choice(range(1, 1101)))
    search = find_generators(graph, max_tree_nodes=1500)
    assert not search.complete
    assert search.tree_nodes == 1501
    assert all(is_automorphism(graph, g) for g in search.generators)


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
    assert gen[atom_node(g, 1)] == atom_node(g, 2)


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
        assert group_order(gens, g.n_nodes) == len(brute)


def leaf_certificate(graph, order):
    """The graph relabelled by position in the order: colors and edges."""
    position = [0] * graph.n_nodes
    for i, v in enumerate(order):
        position[v] = i
    colors = tuple(graph.colors[v] for v in order)
    edges = frozenset(frozenset((position[u], position[v])) for u, v in graph.edges())
    return colors, edges


def test_leaf_certificates_agree_with_automorphism_check():
    """Equal leaf certificates are exactly an automorphism between the leaves."""
    rng = random.Random(47)
    outcomes = Counter()
    for _ in range(150):
        g = random_colored_graph(rng)
        n = g.n_nodes
        autos = brute_force_automorphisms(g)
        first = rng.sample(range(n), n)
        for kind in ("automorphism", "color-preserving", "any"):
            if kind == "automorphism":
                sigma = rng.choice(autos)
            elif kind == "color-preserving":
                sigma = list(range(n))
                for c in set(g.colors):
                    members = [v for v in range(n) if g.colors[v] == c]
                    for v, w in zip(members, rng.sample(members, len(members))):
                        sigma[v] = w
            else:
                sigma = rng.sample(range(n), n)
            second = [sigma[v] for v in first]
            image = [0] * n
            for a, b in zip(first, second):
                image[a] = b
            same = leaf_certificate(g, first) == leaf_certificate(g, second)
            assert same == is_automorphism(g, tuple(image))
            outcomes[kind, same] += 1
    assert outcomes["color-preserving", True] and outcomes["color-preserving", False]
    assert outcomes["any", False] and not outcomes["automorphism", False]


def two_frucht_graphs():
    """Two disjoint copies of the Frucht graph, nodes x and x + 12.

    The Frucht graph is 3-regular with a trivial automorphism group, so
    refinement leaves all 24 nodes in one cell while the group only swaps
    the copies.  The swap is found at node 12, after every node of the
    first copy was tried; it must then prune 13..23 through the orbits of
    1..11, which were tried before it was known.
    """
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = [(x, (x + 1) % 12) for x in range(12)]
    edges += [(x, (x + d) % 12) for x, d in enumerate(lcf)]
    return build_graph([1] * 24, [(u + k, v + k) for k in (0, 12) for u, v in edges])


def rook_and_shrikhande_graphs():
    """The 4x4 rook's graph (nodes 4i + j) beside the Shrikhande graph
    (nodes 16 + 4a + b), both strongly regular with parameters (16, 6, 2, 2)
    and in one color.

    Refinement splits nothing.  The first leaf lies in the rook's graph,
    and the two graphs are not isomorphic, so no leaf below a Shrikhande
    vertex gives an automorphism: those subtrees are searched to the end,
    and only orbit pruning off the first path keeps them small.  The
    Shrikhande graph is the Cayley graph of Z4 x Z4 on +-(0, 1), +-(1, 0)
    and +-(1, 1).
    """
    edges = [(u, v) for u in range(16) for v in range(u + 1, 16)
             if u // 4 == v // 4 or u % 4 == v % 4]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges += [(16 + u, 16 + v) for u in range(16) for v in range(u + 1, 16)
              if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps]
    return build_graph([1] * 32, edges)


def test_search_tree_size_pinned():
    """A change to pruning or refinement that alters the tree shows here."""
    for graph, expected in [(encode_program(pigeonhole(6, 5)), (9, 50)),
                            (encode_program(free_choice(range(1, 17))), (15, 45)),
                            (two_frucht_graphs(), (1, 159)),
                            (rook_and_shrikhande_graphs(), (10, 44))]:
        search = find_generators(graph)
        assert search.complete
        assert (len(search.generators), search.tree_nodes) == expected


def test_symmetric_group_search_is_linear():
    """A node two levels off S_n's first path has the shape of the first
    path's partition at its depth, so each generator is found there, not
    at the end of a dive to a leaf: at most 3n tree nodes (597 for S200),
    where the dives took n(n + 1)/2 (20,100)."""
    n = 200
    search = find_generators(encode_program(free_choice(range(1, n + 1))))
    assert search.complete
    assert search.tree_nodes <= 3 * n
    assert len(search.generators) == n - 1


def test_early_maps_are_checked_on_two_frucht_graphs(monkeypatch):
    """Refinement splits nothing of two Frucht graphs, so 11 nodes off the
    first path have its partition's shape, and each map onto them fails
    `is_automorphism`.  The one automorphism, the swap of the copies,
    is still found, and in the same number of nodes as without early
    detection."""
    maps = []
    early_map = automorphism._early_map

    def recording(first_path, depth, partition, s):
        perm = early_map(first_path, depth, partition, s)
        if perm is not None and s < graph.n_nodes:
            maps.append(perm)
        return perm

    monkeypatch.setattr(automorphism, "_early_map", recording)
    graph = two_frucht_graphs()
    search = find_generators(graph)
    assert len(maps) == 11
    assert not any(is_automorphism(graph, perm) for perm in maps)
    swap = tuple((v + 12) % 24 for v in range(24))
    assert search == ((swap,), True, 159)


def test_early_detection_changes_only_the_tree(monkeypatch):
    """An automorphism found off the first path before a leaf is the one
    the leaf of the dive would give, so the generators and completeness
    are those of a search that always dives to the leaf, in no more tree
    nodes."""
    rng = random.Random(53)
    graphs = [encode_program(program) for program in corpus()]
    graphs += [random_colored_graph(rng, max_nodes=rng.choice((12, 30))) for _ in range(100)]
    graphs += [circulant_graph(n, (1, 2)) for n in range(5, 13)]
    graphs += [two_frucht_graphs(), rook_and_shrikhande_graphs(),
               encode_program(pigeonhole(6, 5)), encode_program(free_choice(range(1, 17)))]
    early = [find_generators(graph) for graph in graphs]
    early_map = automorphism._early_map

    def at_leaves(first_path, depth, partition, s):
        if s < len(partition.by_label):
            return None
        return early_map(first_path, depth, partition, s)

    monkeypatch.setattr(automorphism, "_early_map", at_leaves)
    saved = 0
    for graph, search in zip(graphs, early):
        dive = find_generators(graph)
        assert (search.generators, search.complete) == (dive.generators, dive.complete)
        assert search.tree_nodes <= dive.tree_nodes
        saved += dive.tree_nodes - search.tree_nodes
    assert saved


def test_symmetric_group_gets_n_minus_one_generators():
    """n interchangeable choice atoms give S_n: n - 1 generators, order n!,
    and S40 stays fast."""
    for k in range(2, 13):
        graph = encode_program(free_choice(range(1, k + 1)))
        gens = find_generators(graph).generators
        assert len(gens) == k - 1
        assert group_order(gens, graph.n_nodes) == factorial(k)
    graph = encode_program(free_choice(range(1, 41)))
    started = time.perf_counter()
    search = find_generators(graph)
    assert time.perf_counter() - started < 1.0
    assert search.complete and len(search.generators) <= 39


def test_generators_pinned_on_small_programs():
    expected = {
        p1: ((2, 3, 0, 1, 6, 7, 4, 5),),
        p2: ((2, 3, 0, 1, 4, 5, 6, 7, 10, 11, 8, 9),),
        p3: ((2, 3, 0, 1, 6, 7, 4, 5),),  # <- p, q is an edge
        p4: ((2, 3, 0, 1, 4, 5, 8, 9, 6, 7),),
        p5: ((2, 3, 0, 1, 6, 7, 4, 5),),
    }
    for build, generators in expected.items():
        search = find_generators(encode_program(build()))
        assert (search.generators, search.tree_nodes) == (generators, 3), build.__name__


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
    assert orbit(gens, atom_node(g, 1)) == {atom_node(g, 1), atom_node(g, 2)}


def test_orbit_pigeonhole_covers_all_placements():
    php = pigeonhole(3, 2)
    g = encode_program(php)
    gens = find_generators(g).generators
    seed = atom_node(g, place_atom(3, 2, 1, 1))
    reached = orbit(gens, seed)
    placements = {atom_node(g, place_atom(3, 2, p, h))
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
    pinned = fix_nodes(g, [atom_node(g, 1)])
    assert find_generators(pinned).generators == ()
