"""Automorphism-group computation for colored graphs.

`find_generators` runs a small individualization-refinement search: the
initial partition is the color classes, refined to the coarsest equitable
partition; the first non-singleton cell is split on each of its vertices
in turn, and discrete leaves are compared against the first leaf reached.
Refinement works in rounds, and after the first round it rechecks only the
cells adjacent to a cell that split in the round before; no other cell can
split.  A leaf is compared with the first leaf by checking that the map
between them is an automorphism, the same check that every emitted
permutation must pass, so a bug here can lose symmetries but never invent
one.  Found automorphisms prune sibling branches (restricted to
permutations fixing the current base pointwise).

Permutations are dense image tuples over node ids.
"""

from collections import Counter
from dataclasses import dataclass

from .encoding import ColoredGraph

__all__ = [
    "OrderedPartition", "partition_by_colors", "color_refine",
    "GeneratorSearch", "find_generators", "orbit", "is_automorphism",
    "identity",
]


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered list of disjoint nonempty cells covering all nodes."""

    cells: tuple[tuple[int, ...], ...]

    def first_split_cell(self):
        """Index of the first non-singleton cell, or None when discrete."""
        for i, c in enumerate(self.cells):
            if len(c) > 1:
                return i
        return None


def partition_by_colors(graph: ColoredGraph) -> OrderedPartition:
    cells = {}
    for v, c in enumerate(graph.colors):
        cells.setdefault(c, []).append(v)
    return OrderedPartition(tuple(tuple(cells[c]) for c in sorted(cells)))


def color_refine(graph: ColoredGraph, partition: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement of the partition.

    Two nodes stay in one cell only while they have equal neighbor counts
    into every cell.  Splits keep the host cell's position, sub-cells
    ordered by their neighborhood signature, so the result is both
    deterministic and invariant under relabeling.

    Every round splits each cell against the partition the round started
    from.  The first round checks every cell; later rounds check only the
    cells holding a neighbor of a cell that split in the round before,
    since the neighbor counts of every other cell are unchanged.  A cell
    is labelled by the position of its first node in the concatenated
    cells, so a split relabels only its own nodes, and the labels order
    the cells as their positions do.
    """
    nbrs = graph.neighbors
    index = [0] * graph.n_nodes
    cells = {}
    start = 0
    for cell in partition.cells:
        cells[start] = cell
        for v in cell:
            index[v] = start
        start += len(cell)
    pending = [s for s, cell in cells.items() if len(cell) > 1]
    while pending:
        splits = []
        for s in pending:
            groups = {}
            for v in cells[s]:
                key = tuple(sorted(map(index.__getitem__, nbrs[v])))
                groups.setdefault(key, []).append(v)
            if len(groups) > 1:
                # order sub-cells by the (cell, count) signature; the keys
                # themselves sort into another order
                ordered = sorted(groups.items(),
                                 key=lambda kv: tuple(Counter(kv[0]).items()))
                splits.append((s, [tuple(sorted(members)) for _, members in ordered]))
        for s, fragments in splits:
            for fragment in fragments:
                cells[s] = fragment
                for v in fragment:
                    index[v] = s
                s += len(fragment)
        touched = set()
        for s, fragments in splits:
            for fragment in fragments:
                for v in fragment:
                    touched.update(map(index.__getitem__, nbrs[v]))
        pending = [s for s in touched if len(cells[s]) > 1]
    return OrderedPartition(tuple(cells[s] for s in sorted(cells)))


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_automorphism(graph: ColoredGraph, perm) -> bool:
    """Check both conditions: colors preserved, edges mapped onto edges."""
    colors = graph.colors
    if any(colors[v] != colors[perm[v]] for v in range(graph.n_nodes)):
        return False
    adjacency = graph.adjacency
    for u, v in graph.edges():
        if perm[v] not in adjacency[perm[u]]:
            return False
    return True


def orbit(gens, seed: int) -> frozenset:
    """Closure of {seed} under the given permutations."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = g[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


@dataclass(frozen=True)
class GeneratorSearch:
    """Result of an automorphism search.

    ``complete`` is False when the tree-node budget ran out; the
    generators found so far are still genuine automorphisms, so anything
    built from them stays sound, merely weaker.
    """

    generators: tuple[tuple[int, ...], ...]
    complete: bool
    tree_nodes: int


def _individualize(partition: OrderedPartition, cell_index: int, v: int) -> OrderedPartition:
    cells = list(partition.cells)
    cell = cells[cell_index]
    rest = tuple(w for w in cell if w != v)
    cells[cell_index:cell_index + 1] = [(v,), rest]
    return OrderedPartition(tuple(cells))


def find_generators(graph: ColoredGraph, max_tree_nodes: int = 10 ** 6) -> GeneratorSearch:
    """Generators of the automorphism group via individualization-refinement."""
    n = graph.n_nodes
    root = color_refine(graph, partition_by_colors(graph))
    gens: list[tuple[int, ...]] = []
    gen_keys = set()
    ident = identity(n)
    state = {"count": 0, "exhausted": False, "first_leaf": None}

    def dfs(partition: OrderedPartition, base: tuple):
        state["count"] += 1
        if state["count"] > max_tree_nodes:
            state["exhausted"] = True
            return
        cell_index = partition.first_split_cell()
        if cell_index is None:
            order = tuple(c[0] for c in partition.cells)
            if state["first_leaf"] is None:
                state["first_leaf"] = order
                return
            image = [0] * n
            for a, b in zip(state["first_leaf"], order):
                image[a] = b
            perm = tuple(image)
            if perm != ident and perm not in gen_keys and is_automorphism(graph, perm):
                gens.append(perm)
                gen_keys.add(perm)
            return
        cell = partition.cells[cell_index]
        # skip v when a finished sibling reaches it under the found generators
        # that fix the base; `reached` is rebuilt only when such a generator
        # is new, and otherwise grows by the orbit of each finished sibling
        done = []
        stabilizing = []
        reached = set()
        known = 0  # generators already filtered into `stabilizing`
        covered = 0  # finished siblings whose orbits are in `reached`
        for v in sorted(cell):
            if state["exhausted"]:
                return
            fresh = [g for g in gens[known:] if all(g[b] == b for b in base)]
            known = len(gens)
            if fresh:
                stabilizing += fresh
                reached = set()
                covered = 0
            for w in done[covered:]:
                if w not in reached:
                    reached |= orbit(stabilizing, w)
            covered = len(done)
            if v in reached:
                continue
            child = color_refine(graph, _individualize(partition, cell_index, v))
            dfs(child, base + (v,))
            done.append(v)

    dfs(root, ())
    return GeneratorSearch(tuple(gens), not state["exhausted"], state["count"])
