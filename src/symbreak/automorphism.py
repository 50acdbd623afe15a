"""Automorphism-group computation for colored graphs.

`find_generators` runs a small individualization-refinement search: the
initial partition is the color classes, refined to the coarsest equitable
partition; the first non-singleton cell is split on each of its vertices
in turn, and discrete leaves are compared against the first leaf reached.
Leaves with an equal certificate yield automorphisms, which also prune
sibling branches (restricted to permutations fixing the current base
pointwise).  Every emitted permutation is re-verified against the raw
definition, so a bug here can lose symmetries but never invent one.

`brute_force_automorphisms` is the independent oracle: a backtracking
enumeration of all color-respecting bijections filtered by edge
preservation, feasible for graphs of a dozen nodes.

Permutations are dense image tuples over node ids; composition is
left-to-right (apply ``f``, then ``g``).
"""

from collections import Counter
from dataclasses import dataclass
from math import factorial

from .encoding import ColoredGraph

__all__ = [
    "OrderedPartition", "partition_by_colors", "color_refine",
    "GeneratorSearch", "find_generators", "brute_force_automorphisms",
    "EnumerationBudgetError", "orbit", "is_automorphism", "identity",
    "compose", "group_closure",
]


class EnumerationBudgetError(RuntimeError):
    """Brute-force candidate space larger than the configured budget."""


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered list of disjoint nonempty cells covering all nodes."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.cells)

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
    """
    cells = list(partition.cells)
    nbrs = graph.neighbors
    while True:
        index = {}
        for i, cell in enumerate(cells):
            for v in cell:
                index[v] = i
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(sorted(Counter(index[u] for u in nbrs[v]).items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(sorted(groups[sig])))
        cells = new_cells
        if not changed:
            return OrderedPartition(tuple(cells))


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(f, g) -> tuple[int, ...]:
    """Apply f, then g."""
    return tuple(g[f[v]] for v in range(len(f)))


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
    state = {"count": 0, "exhausted": False, "first_leaf": None, "first_cert": None}

    def leaf_certificate(order):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        cols = tuple(graph.colors[v] for v in order)
        eds = frozenset((min(position[u], position[v]), max(position[u], position[v]))
                        for u, v in graph.edges())
        return cols, eds

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
                state["first_cert"] = leaf_certificate(order)
                return
            if leaf_certificate(order) == state["first_cert"]:
                image = [0] * n
                for a, b in zip(state["first_leaf"], order):
                    image[a] = b
                perm = tuple(image)
                if perm != ident and perm not in gen_keys and is_automorphism(graph, perm):
                    gens.append(perm)
                    gen_keys.add(perm)
            return
        cell = partition.cells[cell_index]
        done = []
        for v in sorted(cell):
            if state["exhausted"]:
                return
            if done:
                stabilizing = [g for g in gens if all(g[b] == b for b in base)]
                if stabilizing:
                    reached = set()
                    for w in done:
                        reached |= orbit(stabilizing, w)
                    if v in reached:
                        continue
            child = color_refine(graph, _individualize(partition, cell_index, v))
            dfs(child, base + (v,))
            done.append(v)

    dfs(root, ())
    return GeneratorSearch(tuple(gens), not state["exhausted"], state["count"])


def brute_force_automorphisms(graph: ColoredGraph, budget: int = 10 ** 7) -> list:
    """All automorphisms by exhaustive color-respecting enumeration.

    Independent of the refinement machinery: candidates are built node by
    node inside color classes and filtered by edge preservation against
    the already-mapped prefix.  The candidate space (product of color
    class factorials) must fit the budget.
    """
    n = graph.n_nodes
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(graph.colors):
        classes.setdefault(c, []).append(v)
    space = 1
    for members in classes.values():
        space *= factorial(len(members))
        if space > budget:
            raise EnumerationBudgetError(
                f"candidate space exceeds budget {budget}")
    order = sorted(range(n), key=lambda v: (graph.colors[v], v))
    adjacency = graph.adjacency
    out = []
    image = [None] * n
    used = set()

    def extend(i: int):
        if i == n:
            out.append(tuple(image))
            return
        v = order[i]
        for w in classes[graph.colors[v]]:
            if w in used:
                continue
            ok = True
            for u in order[:i]:
                if (u in adjacency[v]) != (image[u] in adjacency[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used.add(w)
                extend(i + 1)
                used.discard(w)
                image[v] = None

    extend(0)
    return sorted(out)


def group_closure(gens, n: int, cap: int = 10 ** 6) -> set:
    """Every element of the group generated by gens (small groups only)."""
    elements = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        g = frontier.pop()
        for h in gens:
            k = compose(g, h)
            if k not in elements:
                if len(elements) >= cap:
                    raise EnumerationBudgetError(f"group larger than {cap}")
                elements.add(k)
                frontier.append(k)
    return elements
