"""Refinement, the search engine, the brute-force oracle, orbits, stabilizers."""

import itertools
import random
import time
from collections import Counter
from math import factorial

import pytest

from symbreak import (ChoiceRule, GroundProgram, MinimizeStatement, Orbits,
                      automorphism, color_refine, detect_symmetries,
                      encode_program, find_generators, parse_program)
from symbreak.automorphism import is_automorphism, partition_by_colors
from symbreak.encoding import MINIMIZE_COLOR, fix_nodes
from graph_oracles import (EnumerationBudgetError, atom_node, brute_force_automorphisms,
                           build_graph, cells_of, compose, dense, group_closure,
                           group_order, identity, moved_map, partition_from_cells,
                           reference_color_refine, reference_find_generators,
                           reference_is_automorphism, reference_orbit, root_refine_reads,
                           search_refine_reads)
from programs import (chain, corpus, free_choice, independent_sets, p1, p2, p3, p4,
                      p5, perfbench_workloads, pigeonhole, place_atom,
                      random_colored_graph, random_program,
                      rook_and_shrikhande_edges, two_frucht_edges,
                      workload_instances)


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
    # (1, 1): only the rest's key repeats a label, and the rest's group
    # sorts first, as the raw keys compare (by (cell, count) signature it
    # sorted last)
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


def assert_cells_correspond(partition, relabelled, image):
    """The k-th cell of ``partition``, renamed by ``image``, is the k-th
    cell of ``relabelled``."""
    cells, other = cells_of(partition), cells_of(relabelled)
    assert len(cells) == len(other)
    for a, b in zip(cells, other):
        assert {image[v] for v in a} == set(b), (a, b)


def test_refine_is_invariant_under_relabelling():
    """Refinement commutes with renaming the nodes: from the colour
    partition, and from the refined partition with a vertex v of a
    non-singleton cell individualized against v's image, the k-th cell of
    the graph's refinement maps onto the k-th cell of its relabelled
    copy's.  The search is exact under any cell order with this property,
    so it is what the order of a cell's groups must keep."""
    rng = random.Random(53)
    graphs = [encode_program(program) for program in corpus()]
    graphs += [random_colored_graph(rng, max_nodes=rng.choice((12, 30))) for _ in range(200)]
    individualized = 0
    for g in graphs:
        image = rng.sample(range(g.n_nodes), g.n_nodes)
        h = build_graph([g.colors[v] for v in sorted(range(g.n_nodes), key=image.__getitem__)],
                        [(image[u], image[v]) for u, v in g.edges()])
        refined = color_refine(g, partition_by_colors(g))
        refined_h = color_refine(h, partition_by_colors(h))
        assert_cells_correspond(refined, refined_h, image)
        open_nodes = [v for cell in cells_of(refined) if len(cell) > 1 for v in cell]
        for v in rng.sample(open_nodes, min(3, len(open_nodes))):
            assert_cells_correspond(color_refine(g, refined, v),
                                    color_refine(h, refined_h, image[v]), image)
            individualized += 1
    assert individualized > 500


def test_root_refinement_keys_every_node_while_most_would_be_marked(monkeypatch):
    """At the root of a program with no symmetry, the first rounds split
    most of the graph into fragments that are not left out, and marking
    their neighbors would mark nearly every node.  Such a round only
    relabels, and the next one keys every node of every non-singleton
    cell, as the reference does in every round.  On the 300-atom
    asym-large draw the root takes two of these full rounds after the
    first and reads 5,726 neighbor tuples, against 10,146 when every
    round after the first marked.  The output is the reference's, there
    and on every corpus program, 67 of which take a full round after the
    first.  A full round is counted where `color_refine` hands its label
    list, the only list it passes to ``set``, to ``set`` to find the
    pending cells: once for the first round and once per full round after
    it."""
    collected = []

    def counting_set(*args):
        if args and type(args[0]) is list:
            collected.append(len(args[0]))
        return set(*args)

    monkeypatch.setattr(automorphism, "set", counting_set, raising=False)
    text = perfbench_workloads().asym_large_text(300, 900, random.Random(1))
    asym = encode_program(parse_program(text))
    assert root_refine_reads(asym) <= 5800
    full_rounds = []
    for graph in [asym, *map(encode_program, corpus())]:
        start = partition_by_colors(graph)
        collected.clear()
        assert color_refine(graph, start) == reference_color_refine(graph, start)
        assert collected and set(collected) == {graph.n_nodes}
        full_rounds.append(len(collected) - 1)
    assert full_rounds[0] == 2
    assert sum(map(bool, full_rounds[1:])) == 67


def test_chain_root_refinement_marks_small_splits():
    """On a chain of rules each round of the root refinement splits one or
    two nodes off a cell of about n, so the fragments not left out are
    small and the rounds mark: the 750-atom chain reads 11,215 neighbor
    tuples.  Keying every node of every cell again after such rounds would
    read about n per round, over about 1,100 rounds.  The reference is
    quadratic here, so the output is checked on a 100-atom chain."""
    assert root_refine_reads(encode_program(chain(750))) == 11215
    graph = encode_program(chain(100))
    start = partition_by_colors(graph)
    assert color_refine(graph, start) == reference_color_refine(graph, start)


def test_search_work_on_the_benchmark_instances():
    """The whole search on the seed-1 php and free-choice instances, as the
    benchmark relabels them: the neighbor lists refinement reads, the tree
    nodes and the generators, pinned exactly, so a refinement change that
    reads more or grows the tree on the benchmark's own traffic fails
    here.  The automorphism checks read the uncounted graph.  Rule nodes
    follow the sorted rules, so the search does the work it does on the
    natural pigeonhole 6×5 and S16 (`test_search_neighbour_reads_bounded`);
    numbered in line order, it read 1,323 and 454 tuples in 22 and 40
    nodes."""
    php, free, _ = workload_instances([1])
    for program, expected in [(php, (1082, 18, 9)), (free, (364, 31, 15))]:
        reads, search = search_refine_reads(encode_program(program))
        assert (reads, search.tree_nodes, len(search.generators)) == expected


def test_every_early_map_on_the_benchmark_instances_is_an_automorphism(monkeypatch):
    """Within a cell, rule nodes ascend as their atoms do, whatever the
    order of the rule lines, so on the seed-1 php and free-choice
    instances every positional map the search builds off the first path
    is the automorphism the dive below it would find: 9 maps and 15, one
    per generator.  With rule nodes numbered in line order it built 13 and
    24, of which 4 and 9 failed `is_automorphism`."""
    early_map = automorphism._early_map
    php, free, _ = workload_instances([1])
    for program, generators in [(php, 9), (free, 15)]:
        graph = encode_program(program)
        built = []

        def recording(first_path, depth, partition):
            perm = early_map(first_path, depth, partition)
            if perm is not None:
                built.append(is_automorphism(graph, perm))
            return perm

        monkeypatch.setattr(automorphism, "_early_map", recording)
        search = find_generators(graph)
        assert len(search.generators) == generators
        assert built == [True] * generators


def test_search_neighbour_reads_bounded():
    """Seeded refinement, skipping the largest fragment, backjumping and
    early detection off the first path read fewer neighbor lists: 1,082
    and 364 reads with all of them, 2,531 and 504 when early detection
    took only nodes whose non-singleton cells were the first path's, and
    2,633 and 1,414 without early detection.  Only refinement's reads are
    counted: the automorphism checks read the uncounted graph, and the
    next test bounds theirs."""
    for program, bound, expected in [(pigeonhole(6, 5), 1100, (9, 18)),
                                     (free_choice(range(1, 17)), 370, (15, 31))]:
        reads, search = search_refine_reads(encode_program(program))
        assert reads <= bound
        assert (len(search.generators), search.tree_nodes) == expected


class RecordingNeighbors(tuple):
    """Neighbor lists that record the index of each one read, and count
    the walks over all of them."""

    def __new__(cls, neighbors):
        self = super().__new__(cls, neighbors)
        self.read = []
        self.walks = 0
        return self

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        self.walks += 1
        return tuple.__iter__(self)


def test_automorphism_check_reads_moved_nodes_only():
    """A check reads the neighbor tuples of the nodes the map moves and of
    their images, once each, and never walks the whole graph: a map that
    moves 4 nodes of a large graph costs 4 nodes, not the graph."""
    for program in (pigeonhole(5, 4), free_choice(range(1, 9))):
        graph = encode_program(program)
        for perm in find_generators(graph).generators:
            recorded = RecordingNeighbors(graph.neighbors)
            assert is_automorphism(graph._replace(neighbors=recorded), perm)
            assert recorded.walks == 0
            assert sorted(recorded.read) == sorted([*perm, *perm.values()])
        # a map that fails reads no further than the first failing node
        v, w = 0, 2  # two positive literal nodes of distinct atoms
        recorded = RecordingNeighbors(graph.neighbors)
        bad = {v: w, w: v}
        assert (is_automorphism(graph._replace(neighbors=recorded), bad)
                == reference_is_automorphism(graph, dense(bad, graph.n_nodes)))
        assert recorded.walks == 0 and set(recorded.read) <= {v, w}


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
        found = tuple(dense(g, n) for g in search.generators)
        assert group_order(found, n) == order
        assert group_order(found + reference.generators, n) == order
        orbits = Orbits()
        for g in search.generators:
            orbits.merge(g)
        assert len(search.generators) <= n - len(set(map(orbits.least, range(n))))
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


# two connected cubic graphs on which early detection gives up on a node
# for its shape alone: on the first a node off the first path lies deeper
# than the first leaf, and on the second a cell the first path's partition
# holds as a singleton is larger at the node, all cells before it matching
# in size
DEEPER_THAN_FIRST_LEAF = build_graph([1] * 8, [
    (0, 2), (0, 4), (0, 7), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 5),
    (3, 7), (4, 6), (5, 6)])
SINGLETON_AGAINST_CELL = build_graph([1] * 10, [
    (0, 2), (0, 4), (0, 7), (1, 3), (1, 6), (1, 9), (2, 3), (2, 8), (3, 7),
    (4, 5), (4, 8), (5, 6), (5, 9), (6, 9), (7, 8)])


def cell_sizes(partition):
    """The sizes of the partition's cells, in label order."""
    return [len(cell) for cell in partition.by_label if cell is not None]


def shape_mismatch(first_path, depth, partition):
    """Why the early map at ``depth`` fails for its shape: "deeper" when
    the first path does not reach ``depth``, "size" when the two
    partitions' cells differ in size in label order; None when the shapes
    agree."""
    if depth >= len(first_path):
        return "deeper"
    if cell_sizes(first_path[depth]) != cell_sizes(partition):
        return "size"
    return None


def test_early_map_shape_mismatches_are_reached(monkeypatch):
    """The early map's two shape checks are each reached, it gives up on a
    node exactly when the shapes differ, and the search still matches the
    reference."""
    reasons = []
    real = automorphism._early_map

    def recording(first_path, depth, partition):
        reason = shape_mismatch(first_path, depth, partition)
        perm = real(first_path, depth, partition)
        assert (perm is None) == (reason is not None), reason
        reasons.append(reason)
        return perm

    monkeypatch.setattr(automorphism, "_early_map", recording)
    find_generators(DEEPER_THAN_FIRST_LEAF)
    assert "deeper" in reasons
    reasons.clear()
    find_generators(SINGLETON_AGAINST_CELL)
    assert "size" in reasons
    monkeypatch.setattr(automorphism, "_early_map", real)
    assert_search_matches_reference(monkeypatch, [DEEPER_THAN_FIRST_LEAF,
                                                  SINGLETON_AGAINST_CELL])


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


def test_support_check_matches_whole_graph_check():
    """Checking only the nodes a permutation moves gives the verdict of
    the check over every node and edge.  On the corpus graphs, the
    benchmark instances of seeds 1-4 and random graphs the permutations
    are the search's generators, their products of two, permutations
    inside the color classes and across them, each moving every node or
    two, and generators spoiled by a swap inside a color class.  On the
    corpus and random graphs they are also the generators of the graph
    with its colors forgotten, which map edges onto edges but may move a
    node to another color."""
    rng = random.Random(27)
    outcomes = Counter()
    graphs = [encode_program(program) for program in corpus()]
    graphs += [random_colored_graph(rng, max_nodes=30) for _ in range(200)]
    uncolored = len(graphs)
    graphs += [encode_program(program) for program in workload_instances(range(1, 5))]
    for number, graph in enumerate(graphs):
        n = graph.n_nodes
        gens = [dense(g, n) for g in find_generators(graph).generators]
        if number < uncolored:
            plain = graph._replace(colors=(1,) * n)
            gens += [dense(g, n) for g in find_generators(plain, max_tree_nodes=500).generators]
        classes = {}
        for v, c in enumerate(graph.colors):
            classes.setdefault(c, []).append(v)
        pairs = [members for members in classes.values() if len(members) > 1]

        def swap(perm, a, b):
            perm = list(perm)
            perm[a], perm[b] = perm[b], perm[a]
            return tuple(perm)

        perms = gens + [compose(f, g) for f in gens for g in gens]
        shuffled = list(range(n))
        for members in classes.values():
            for v, w in zip(members, rng.sample(members, len(members))):
                shuffled[v] = w
        perms += [tuple(shuffled), tuple(rng.sample(range(n), n))]
        if n > 1:
            perms += [swap(identity(n), *rng.sample(range(n), 2))]
        for _ in range(3 if pairs else 0):
            perms.append(swap(identity(n), *rng.sample(rng.choice(pairs), 2)))
            if gens:
                perms.append(swap(rng.choice(gens), *rng.sample(rng.choice(pairs), 2)))
        for perm in perms:
            verdict = reference_is_automorphism(graph, perm)
            assert is_automorphism(graph, moved_map(perm)) == verdict, (graph, perm)
            outcomes[verdict] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000


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
        gens = [dense(gen, g.n_nodes) for gen in find_generators(g).generators]
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
            assert same == is_automorphism(g, moved_map(image))
            outcomes[kind, same] += 1
    assert outcomes["color-preserving", True] and outcomes["color-preserving", False]
    assert outcomes["any", False] and not outcomes["automorphism", False]


def two_frucht_graphs():
    """Two disjoint copies of the Frucht graph, nodes x and x + 12.

    Refinement leaves all 24 nodes in one cell while the group only swaps
    the copies.  The swap is found at node 12, after every node of the
    first copy was tried; it must then prune 13..23 through the orbits of
    1..11, which were tried before it was known.
    """
    return build_graph([1] * 24, two_frucht_edges())


def rook_and_shrikhande_graphs():
    """The 4x4 rook's graph beside the Shrikhande graph, in one color.

    Refinement splits nothing.  The first leaf lies in the rook's graph,
    and the two graphs are not isomorphic, so no leaf below a Shrikhande
    vertex gives an automorphism: those subtrees are searched to the end,
    and only orbit pruning off the first path keeps them small.
    """
    return build_graph([1] * 32, rook_and_shrikhande_edges())


def test_search_tree_size_pinned():
    """A change to pruning, refinement or early detection that alters the
    tree shows here.  Off-path nodes prune on the rook's and Shrikhande
    graphs and on the two cubic graphs, which pin that rule, and on the
    independent-set program of the rook's and Shrikhande graphs, which
    carries it into the digest.  Early detection maps every cell
    position by position, so a node whose non-singleton cells differ from
    the first path's takes its generator at once instead of diving to a
    leaf: pigeonhole 6×5 went from 50 nodes to 18, S16 from 45 to 31, the
    rook's and Shrikhande graphs and their independent-set program from
    44 to 32, the two Frucht graphs and theirs from 159 to 158, and the
    second cubic graph from 24 to 23.  The first cubic graph stays at 8.
    Pigeonhole n×(n-1) takes 4n - 6 nodes with 2n - 3 generators (14, 34
    and 74 for n = 5, 10 and 20); taking only nodes whose non-singleton
    cells were the first path's took 33, 148 and 603, for every generator
    a dive that grew with n.  The benchmark's seed-1 instances rename
    their atoms and shuffle their rule lines, but rule nodes follow the
    sorted rules, so their pigeonhole 6×5 takes 18 nodes and their S16 31,
    as the natural ones do.  With rule nodes in line order a cell's
    ascending order followed the symmetry only in part, some positional
    maps failed `is_automorphism`, and the search dived below them: 22
    nodes and 40."""
    php, choice, _ = workload_instances([1])
    for graph, expected in [(encode_program(pigeonhole(6, 5)), (9, 18)),
                            (encode_program(pigeonhole(5, 4)), (7, 14)),
                            (encode_program(pigeonhole(10, 9)), (17, 34)),
                            (encode_program(pigeonhole(20, 19)), (37, 74)),
                            (encode_program(php), (9, 18)),
                            (encode_program(free_choice(range(1, 17))), (15, 31)),
                            (encode_program(choice), (15, 31)),
                            (two_frucht_graphs(), (1, 158)),
                            (rook_and_shrikhande_graphs(), (10, 32)),
                            (encode_program(independent_sets(32, rook_and_shrikhande_edges())),
                             (10, 32)),
                            (encode_program(independent_sets(24, two_frucht_edges())), (1, 158)),
                            (DEEPER_THAN_FIRST_LEAF, (2, 8)),
                            (SINGLETON_AGAINST_CELL, (3, 23))]:
        search = find_generators(graph)
        assert search.complete
        assert (len(search.generators), search.tree_nodes) == expected


def test_symmetric_group_search_is_linear():
    """A node one level off S_n's first path has the shape of the first
    path's partition at its depth, and the map between the two, cell by
    cell and position by position, is the generator, so each generator is
    found there, not at the end of a dive to a leaf: 2n - 1 tree nodes
    (399 for S200).  That needs every cell to list its atoms' nodes in
    the order of the atoms, which holds for rule nodes too, as they follow
    the sorted rules: the benchmark's relabelled S16 takes 31 nodes as
    well (`test_search_tree_size_pinned`).  Taking only nodes whose
    non-singleton cells were the first path's found each two levels off,
    in 3n - 3 (597); the dives took n(n + 1)/2 (20,100)."""
    for n in (2, 3, 5, 16, 200):
        search = find_generators(encode_program(free_choice(range(1, n + 1))))
        assert search.complete
        assert (len(search.generators), search.tree_nodes) == (n - 1, 2 * n - 1), n


def test_early_maps_are_checked_on_two_frucht_graphs(monkeypatch):
    """Refinement splits nothing of two Frucht graphs, so 12 nodes off the
    first path above the leaves have its partition's shape.  The maps onto
    the first 11 fail `is_automorphism`, and the search dives below them;
    the last is the one automorphism, the swap of the copies, found one
    level above the leaf that gave it without early detection, so the tree
    has 158 nodes instead of 159."""
    maps = []
    early_map = automorphism._early_map

    def recording(first_path, depth, partition):
        perm = early_map(first_path, depth, partition)
        if perm is not None and None in partition.by_label:
            maps.append(perm)
        return perm

    monkeypatch.setattr(automorphism, "_early_map", recording)
    graph = two_frucht_graphs()
    search = find_generators(graph)
    assert [is_automorphism(graph, perm) for perm in maps] == [False] * 11 + [True]
    swap = tuple((v + 12) % 24 for v in range(24))
    assert search == ((moved_map(swap),), True, 158)
    assert maps[-1] == moved_map(swap)


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
               encode_program(pigeonhole(6, 5)), encode_program(pigeonhole(10, 9)),
               encode_program(free_choice(range(1, 17)))]
    early = [find_generators(graph) for graph in graphs]
    early_map = automorphism._early_map

    def at_leaves(first_path, depth, partition):
        if None in partition.by_label:  # some cell is no singleton
            return None
        return early_map(first_path, depth, partition)

    monkeypatch.setattr(automorphism, "_early_map", at_leaves)
    saved = 0
    for graph, search in zip(graphs, early):
        dive = find_generators(graph)
        assert (search.generators, search.complete) == (dive.generators, dive.complete)
        assert search.tree_nodes <= dive.tree_nodes
        saved += dive.tree_nodes - search.tree_nodes
    assert saved


def test_early_maps_are_taken_above_the_leaves(monkeypatch):
    """On pigeonhole 6×5 and S16 a node whose non-singleton cells differ
    from the first path's takes its generator from the early map: 8 of
    the 9 generators and 14 of the 15 are found above the leaves.  Taking
    only nodes whose non-singleton cells were the first path's found 2 and
    13 there, in trees of 50 and 45 nodes against 18 and 31."""
    early_map = automorphism._early_map
    for program, expected in [(pigeonhole(6, 5), (8, 9)), (free_choice(range(1, 17)), (14, 15))]:
        graph = encode_program(program)
        taken = []

        def recording(first_path, depth, partition):
            perm = early_map(first_path, depth, partition)
            if perm is not None and None in partition.by_label and is_automorphism(graph, perm):
                taken.append(perm)
            return perm

        monkeypatch.setattr(automorphism, "_early_map", recording)
        search = find_generators(graph)
        assert all(perm in search.generators for perm in taken)
        assert (len(taken), len(search.generators)) == expected


def test_symmetric_group_gets_n_minus_one_generators():
    """n interchangeable choice atoms give S_n: n - 1 generators, order n!,
    and S40 stays fast."""
    for k in range(2, 13):
        graph = encode_program(free_choice(range(1, k + 1)))
        gens = [dense(g, graph.n_nodes) for g in find_generators(graph).generators]
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
        p4: ((2, 3, 0, 1, 6, 7, 4, 5, 8, 9),),  # choice rules before the disjunctive
        p5: ((2, 3, 0, 1, 6, 7, 4, 5),),
    }
    for build, generators in expected.items():
        graph = encode_program(build())
        search = find_generators(graph)
        found = tuple(dense(g, graph.n_nodes) for g in search.generators)
        assert (found, search.tree_nodes) == (generators, 3), build.__name__


def test_pigeonhole_group_order():
    g = encode_program(pigeonhole(3, 2))
    gens = [dense(gen, g.n_nodes) for gen in find_generators(g).generators]
    atom_images = {tuple(gen[2 * i] for i in range(len(g.atoms))) for gen in gens}
    closure = group_closure(gens, g.n_nodes)
    assert len({tuple(p[2 * i] for i in range(len(g.atoms))) for p in closure}) >= 12


def test_orbit_trivial_and_p1():
    orbits = Orbits()
    assert (orbits.least(3), orbits.orbit(3)) == (3, [3])
    g = encode_program(p1())
    orbits.merge(find_generators(g).generators[0])
    assert orbits.orbit(atom_node(g, 2)) == [atom_node(g, 1), atom_node(g, 2)]


def test_orbit_pigeonhole_covers_all_placements():
    g = encode_program(pigeonhole(3, 2))
    orbits = Orbits()
    for gen in find_generators(g).generators:
        orbits.merge(gen)
    placements = [atom_node(g, place_atom(3, 2, p, h)) for p in (1, 2, 3) for h in (1, 2)]
    reached = orbits.orbit(placements[0])
    assert set(placements) <= set(reached)
    assert reached[-1] < 2 * len(g.atoms)  # literal nodes only


def test_orbits_match_reference_closure_after_each_merge():
    """Merged one generator at a time, the union-find gives every point
    the orbit, in ascending order, and the least point of the dense
    closure that applies every generator merged so far to every point:
    under the search's generators of the corpus graphs and the benchmark
    instances of seeds 1-4, and under the moved maps of their validated
    atom permutations."""
    checked = 0
    for program in [*corpus(), *workload_instances(range(1, 5))]:
        detection = detect_symmetries(program)
        n = encode_program(program).n_nodes
        m = program.max_atom + 1
        for maps, size in [(detection.search.generators, n),
                           ([g.moved for g in detection.generators], m)]:
            orbits = Orbits()
            merged = []
            for g in maps:
                orbits.merge(g)
                merged.append(dense(g, size))
                expected = {}
                for v in range(size):
                    if v not in expected:
                        closure = sorted(reference_orbit(merged, v))
                        expected.update(dict.fromkeys(closure, closure))
                    assert orbits.orbit(v) == expected[v], program
                    assert orbits.least(v) == expected[v][0], program
                checked += size
    assert checked > 10000


def test_orbits_of_a_long_chain_need_no_recursion():
    """Merging (i i+1) for i from 99,999 down to 0 links each point under
    the next smaller one, a chain 100,000 long, which `least` walks in a
    loop."""
    orbits = Orbits()
    for i in reversed(range(100_000)):
        orbits.merge({i: i + 1, i + 1: i})
    assert orbits.least(99_999) == 0
    assert orbits.least(100_000) == 0


def test_symmetric_group_search_reads_each_generator_twice(monkeypatch):
    """On S200 the search reads each entry of a generator's moved map
    once to check it and once to merge it into the orbits: at most twice
    the 1,592 entries of support, where applying every stabilizing
    generator to every orbit point read 41,390."""
    reads = 0

    class CountingMap(dict):
        def __getitem__(self, key):
            nonlocal reads
            reads += 1
            return super().__getitem__(key)

        def items(self):
            nonlocal reads
            for item in super().items():
                reads += 1
                yield item

    early_map = automorphism._early_map

    def counting(first_path, depth, partition):
        perm = early_map(first_path, depth, partition)
        return None if perm is None else CountingMap(perm)

    monkeypatch.setattr(automorphism, "_early_map", counting)
    search = find_generators(encode_program(free_choice(range(1, 201))))
    support = sum(map(len, search.generators))
    assert (search.complete, len(search.generators), support) == (True, 199, 1592)
    assert reads <= 2 * support


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
