"""Automorphism-group computation for colored graphs.

`find_generators` runs a small individualization-refinement search: the
initial partition is the color classes, refined to the coarsest equitable
partition; the first non-singleton cell is split on each of its vertices
in turn, and discrete leaves are compared against the first leaf reached.
A leaf is compared with the first leaf by checking that the map between
them is an automorphism, the same check that every emitted permutation
must pass, so a bug here can lose symmetries but never invent one.  Found
automorphisms prune sibling branches (restricted to permutations fixing
the current base pointwise).

`color_refine` works in rounds, and every round splits each cell against
the partition the round started from.  So after a round every cell is
equitable with respect to the partition that round started from: all its
nodes have equal neighbor counts into each cell of it.  The savings below
follow from this invariant; each skips only work whose outcome is known,
so every round ends with the cells, in the order, of a refinement that
rechecks every cell (``reference_color_refine`` in the tests).

- Skip one fragment.  When a cell S splits, one fragment, the largest, is
  left out when marking what to recheck.  A cell whose nodes see no node
  of the other fragments had equal counts into S, so they have equal
  counts into the fragment left out, and cannot split on S.  The next
  round rechecks only cells holding a neighbor of a fragment not left out.
- Key only marked nodes.  By the same argument, the nodes of a rechecked
  cell that see none of those fragments share one key, so one of them is
  keyed for all.
- Seed the first round.  The search refines an equitable partition with
  one vertex v split off its cell; {v} and the rest of the cell are the
  fragments of a split equitable cell, with the rest left out.  Given
  ``individualized=v``, the first round marks v's neighbors only.  Without
  it (the root call, arbitrary partitions) the first round keys every node.
- Cheaper group order.  Sub-cells are ordered by the (cell, count)
  signature of their nodes' neighbor labels.  When no key in a splitting
  cell repeats a label, that order is the order of the sorted key tuples
  themselves; otherwise `_signature_order` gives it without building the
  signature.

Permutations are dense image tuples over node ids.
"""

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


def _signature_order(key: tuple, top: int) -> list:
    """Sort key ordering sorted neighbor-label keys as their (cell, count)
    signatures do.

    Every repeat of a label becomes ``top``, which exceeds every label, so
    a longer run of one label sorts after a shorter run of it followed by
    anything else, exactly as the larger count does in the signature.
    """
    out = list(key)
    for i in range(1, len(key)):
        if key[i] == key[i - 1]:
            out[i] = top
    return out


def color_refine(graph: ColoredGraph, partition: OrderedPartition,
                 individualized: int = None) -> OrderedPartition:
    """Coarsest equitable refinement of the partition.

    Two nodes stay in one cell only while they have equal neighbor counts
    into every cell.  Splits keep the host cell's position, sub-cells
    ordered by their neighborhood signature, so the result is both
    deterministic and invariant under relabeling.

    Every round splits each cell against the partition the round started
    from.  The first round checks every cell, or, when ``individualized``
    names a vertex v and the partition is an equitable one with v split
    off into a singleton cell, only the cells holding a neighbor of v.
    Later rounds check only the cells holding a neighbor of a fragment,
    other than the largest one, of a cell that split in the round before.
    Only those neighbors are keyed one by one (the module docstring says
    why this is exact).  A cell is labelled by the position of its first
    node in the concatenated cells, so a split relabels only its own
    nodes, and the labels order the cells as their positions do.
    """
    nbrs = graph.neighbors
    n = graph.n_nodes
    index = [0] * n
    cells = {}
    start = 0
    for cell in partition.cells:
        cells[start] = cell
        for v in cell:
            index[v] = start
        start += len(cell)
    if individualized is None:
        marked = None  # every node of a pending cell is keyed
        pending = [s for s, cell in cells.items() if len(cell) > 1]
    else:
        marked = set(nbrs[individualized])
        pending = [s for s in set(map(index.__getitem__, marked)) if len(cells[s]) > 1]
    while pending:
        splits = []
        for s in pending:
            groups = {}
            rest = []
            for v in cells[s]:
                if marked is None or v in marked:
                    key = tuple(sorted(map(index.__getitem__, nbrs[v])))
                    groups.setdefault(key, []).append(v)
                else:
                    rest.append(v)
            if rest:
                # unmarked nodes share one key
                key = tuple(sorted(map(index.__getitem__, nbrs[rest[0]])))
                groups.setdefault(key, []).extend(rest)
            if len(groups) > 1:
                if all(len(set(key)) == len(key) for key in groups):
                    ordered = sorted(groups.items())
                else:
                    # order sub-cells by the (cell, count) signature; keys
                    # that repeat a label sort into another order
                    ordered = sorted(groups.items(),
                                     key=lambda kv: _signature_order(kv[0], n))
                splits.append((s, [tuple(sorted(members)) for _, members in ordered]))
        for s, fragments in splits:
            for fragment in fragments:
                cells[s] = fragment
                for v in fragment:
                    index[v] = s
                s += len(fragment)
        marked = set()
        for _, fragments in splits:
            skipped = max(fragments, key=len)
            for fragment in fragments:
                if fragment is not skipped:
                    for v in fragment:
                        marked.update(nbrs[v])
        pending = [s for s in set(map(index.__getitem__, marked)) if len(cells[s]) > 1]
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
            child = color_refine(graph, _individualize(partition, cell_index, v), v)
            dfs(child, base + (v,))
            done.append(v)

    dfs(root, ())
    return GeneratorSearch(tuple(gens), not state["exhausted"], state["count"])
