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

The search backjumps to the first path (the path to the first leaf).  A
leaf off it lies below the deepest first-path node whose child w is being
searched, with first child v.  Refinement is invariant under relabelling,
so an automorphism g taking the first leaf to this leaf fixes the base of
that node and takes v to w: every leaf below w is the image under g of a
leaf below v, so the search jumps back to the node and goes on with its
next child.  First-path nodes finish deepest first, so every generator
found so far fixes the base of the node being searched, and w was not in
the orbit of v under them, or it would have been pruned.  So each
generator joins two orbits of the group found so far: at most n-1 are
found, no leaf repeats a known one, and they generate the group with the
first path as a base (bliss: Junttila & Kaski, ALENEX 2007).  Orbit
pruning stays exact at every node.  On the first path it prunes only
images of finished siblings.  Off it, a finished sibling held no leaf
equivalent to the first leaf, or the search would have jumped, so
neither does any image of it.

Each tree node costs work in proportion to what it changes.  The search
is depth first over an explicit stack of the inner nodes on the current
path, so no depth hits the recursion limit.  A node keeps the labelled
partition refinement works on (``OrderedPartition.labels`` and
``by_label``); `color_refine` copies both lists once, splits the child's
vertex off its cell on the copy and relabels only that cell.

Orbit pruning at a node uses the generators found so far that fix its
base pointwise.  Backjumping decides in advance which those are:

- (I1) every first-path node is made before the first leaf is reached,
  so before the first generator is found;
- (I2) every generator found while a first-path node is on the path
  fixes that node's base: it maps the first leaf to a leaf below the
  node, and both leaves keep each base vertex in the singleton cell it
  was split into;
- (I3) a node off the first path is popped by the first generator found
  below it, and while it is on the path every leaf reached is below it.

So no generator is ever tested against a base.  By (I1) a first-path
node has nothing to inherit from its parent, and by (I2) it can prune
with every generator, so first-path nodes share the live list of them.
By (I3) an off-path node never sees a generator it was not made with: it
keeps the snapshot of its parent's list that fixes its own vertex, taken
when it is made, and nodes need not store their bases.

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
  one vertex v split off its cell: given ``individualized=v``,
  `color_refine` splits v off first, on its copy.  {v} and the rest of
  the cell are the fragments of a split equitable cell, with the rest
  left out, so the first round marks v's neighbors only.  Without it
  (the root call, arbitrary partitions) the first round keys every node.
- Cheaper group order.  Sub-cells are ordered by the (cell, count)
  signature of their nodes' neighbor labels.  `_signature_order` turns a
  sorted key into a tuple that sorts as its signature does, and that form
  is one-to-one, so nodes are grouped by it and the groups sorted by it
  without building a signature.  A key without repeats is its own form,
  so only a key that repeats a label is rebuilt, and a key of degree 2 is
  made in that form by the comparison that orders its two labels.
- Key low degrees directly.  A node of degree at most 2 gets its key
  from a comparison, not from a sort.
- The rest is a group of its own.  Every marked node of a rechecked cell
  sees a node of a fragment not left out, which is a cell of the round's
  partition, and no unmarked node does, so their keys differ.
- Fragments come in order.  Every cell ascends: color classes do,
  `OrderedPartition.from_cells` sorts each cell, and a split keeps the
  order of the cell, since a group's members and the rest of an
  individualized vertex's cell arrive in it.  So fragments need no sort.
- Relabel and mark in one pass.  Marking reads neighbor lists, not
  labels, so each split relabels and marks its fragments together, and
  the first fragment keeps the cell's label, so its nodes keep theirs.

Permutations are dense image tuples over node ids.
"""

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .encoding import ColoredGraph

__all__ = [
    "OrderedPartition", "partition_by_colors", "color_refine",
    "GeneratorSearch", "find_generators", "orbit", "is_automorphism",
]


class OrderedPartition(NamedTuple):
    """Ordered list of disjoint nonempty cells covering all nodes, as a
    labelling: ``labels[v]`` is the label of v's cell, the position of
    that cell's first node in the concatenated cells, and ``by_label[s]``
    is the cell labelled s (None at positions that label no cell), so both
    are lists over nodes.  Every cell lists its nodes in ascending order,
    so the labelling is unique to the cells and tuple equality is equality
    of partitions.  Nothing is changed after construction.
    """

    labels: list
    by_label: list

    @classmethod
    def from_cells(cls, cells) -> "OrderedPartition":
        """The partition with the given cells in order, each sorted."""
        labels = [0] * sum(map(len, cells))
        by_label = [None] * len(labels)
        start = 0
        for cell in cells:
            by_label[start] = tuple(sorted(cell))
            for v in cell:
                labels[v] = start
            start += len(cell)
        return cls(labels, by_label)

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(filter(None, self.by_label))


def partition_by_colors(graph: ColoredGraph) -> OrderedPartition:
    """The color classes by ascending color, each listing its nodes in
    ascending order, as a labelled partition."""
    colors = graph.colors
    by_color = sorted(range(len(colors)), key=colors.__getitem__)  # stable
    by_label = [None] * len(colors)
    first = {}
    start = 0
    for c, size in sorted(Counter(colors).items()):
        first[c] = start
        by_label[start] = tuple(by_color[start:start + size])
        start += size
    return OrderedPartition([first[c] for c in colors], by_label)


def _signature_order(key: tuple, top: int) -> tuple:
    """Sort key ordering sorted neighbor-label keys as their (cell, count)
    signatures do.

    Every repeat of a label becomes ``top``, which exceeds every label, so
    a longer run of one label sorts after a shorter run of it followed by
    anything else, exactly as the larger count does in the signature.  A
    key without repeats is its own sort key, and no two keys share one.
    """
    out = list(key)
    for i in range(1, len(key)):
        if key[i] == key[i - 1]:
            out[i] = top
    return tuple(out)


def color_refine(graph: ColoredGraph, partition: OrderedPartition,
                 individualized: int = None) -> OrderedPartition:
    """Coarsest equitable refinement of the partition.

    Two nodes stay in one cell only while they have equal neighbor counts
    into every cell.  Splits keep the host cell's position, sub-cells
    ordered by their neighborhood signature, so the result is both
    deterministic and invariant under relabeling.

    When ``individualized`` names a vertex v of an equitable partition, v
    is first split off its cell into a singleton cell just before the rest
    of it, which is nothing to do when v is a singleton already.

    Every round splits each cell against the partition the round started
    from.  The first round checks every cell, or, given ``individualized``,
    only the cells holding a neighbor of v.  Later rounds check only the
    cells holding a neighbor of a fragment, other than the largest one, of
    a cell that split in the round before.  Only those neighbors are keyed
    one by one (the module docstring says why this and the other shortcuts
    are exact).  A cell is labelled by the position of its first node in
    the concatenated cells, so a split relabels only its own nodes, and the
    labels order the cells as their positions do.  The split and the
    refinement work on one copy of the partition's labelling, never on the
    partition itself, and the result carries the refined labelling.
    """
    nbrs = graph.neighbors
    n = graph.n_nodes
    index = partition.labels.copy()
    cells = partition.by_label.copy()
    if individualized is None:
        marked = None  # every node of a pending cell is keyed
        pending = [s for s in set(index) if len(cells[s]) > 1]
    else:
        v = individualized
        s = index[v]
        rest = tuple(w for w in cells[s] if w != v)
        if rest:
            cells[s] = (v,)
            cells[s + 1] = rest
            for w in rest:
                index[w] = s + 1
        marked = set(nbrs[v])
        pending = [s for s in set(map(index.__getitem__, marked)) if len(cells[s]) > 1]
    while pending:
        splits = []
        for s in pending:
            cell = cells[s]
            rest = None
            if marked is None:
                keyed = cell
            else:
                keyed = [v for v in cell if v in marked]
                if len(keyed) < len(cell):
                    # unmarked nodes share one key: key the first of them
                    rest = [v for v in cell if v not in marked]
                    keyed.append(rest[0])
            # keys are the nodes' sorted neighbor labels in their
            # _signature_order form, so they sort as the signatures do
            groups = {}
            for v in keyed:
                ns = nbrs[v]
                d = len(ns)
                if d == 2:
                    a = index[ns[0]]
                    b = index[ns[1]]
                    if a < b:
                        key = (a, b)
                    elif a > b:
                        key = (b, a)
                    else:
                        key = (a, n)
                elif d > 2:
                    key = tuple(sorted(map(index.__getitem__, ns)))
                    if len(set(key)) < d:
                        key = _signature_order(key, n)
                elif d:
                    key = (index[ns[0]],)
                else:
                    key = ()
                group = groups.get(key)
                if group is None:
                    groups[key] = [v]
                else:
                    group.append(v)
            if len(groups) == 1:
                continue
            if rest is not None:
                # ``key`` is the first unmarked node's, and no marked node's
                groups[key] = rest
            splits.append((s, list(map(tuple, map(groups.__getitem__, sorted(groups))))))
        # relabel and mark in one pass per split; the first fragment keeps
        # the cell's label, so its nodes keep theirs
        marked = set()
        mark = marked.update
        for s, fragments in splits:
            skipped = max(fragments, key=len)
            first = fragments[0]
            for fragment in fragments:
                cells[s] = fragment
                if len(fragment) == 1:
                    v = fragment[0]
                    index[v] = s
                    if fragment is not skipped:
                        mark(nbrs[v])
                elif fragment is not skipped:
                    for v in fragment:
                        index[v] = s
                        mark(nbrs[v])
                elif fragment is not first:
                    for v in fragment:
                        index[v] = s
                s += len(fragment)
        pending = [s for s in set(map(index.__getitem__, marked)) if len(cells[s]) > 1]
    return OrderedPartition(index, cells)


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


class _Node:
    """An inner node of the search tree: its partition, the label of its
    first non-singleton cell, and the loop over that cell."""

    __slots__ = ("partition", "label", "todo", "current", "done",
                 "stabilizing", "known", "reached", "covered")

    def __init__(self, partition, label, stabilizing):
        self.partition = partition
        self.label = label
        self.todo = iter(partition.by_label[label])
        self.current = None  # the vertex whose subtree is being searched
        self.done = []  # the vertices whose subtrees are finished
        # the found generators fixing the base: the search's own list on
        # the first path, a fixed snapshot off it
        self.stabilizing = stabilizing
        self.known = len(stabilizing)  # generators `reached` was built with
        self.reached = set()
        self.covered = 0  # finished vertices whose orbits are in `reached`

    def next_vertex(self):
        """The next vertex of the cell to individualize, or None when done.

        A vertex is skipped when a finished sibling reaches it under the
        found generators that fix the base.  `reached` is rebuilt when
        generators were found since the last call, and otherwise grows by
        the orbit of each newly finished sibling.
        """
        if self.current is not None:
            self.done.append(self.current)
            self.current = None
        for v in self.todo:
            if self.known < len(self.stabilizing):
                self.known = len(self.stabilizing)
                self.reached = set()
                self.covered = 0
            for w in self.done[self.covered:]:
                if w not in self.reached:
                    self.reached |= orbit(self.stabilizing, w)
            self.covered = len(self.done)
            if v not in self.reached:
                self.current = v
                return v
        return None


def find_generators(graph: ColoredGraph, max_tree_nodes: int = 10 ** 6) -> GeneratorSearch:
    """Generators of the automorphism group via individualization-refinement.

    Depth first, with the inner nodes of the current path on an explicit
    stack, so the depth of the tree is bounded by memory, not by the
    recursion limit.  Nodes on the first path prune with every generator
    found; a node off it with the generators that fixed its base when it
    was made.  Each tree node costs one ``color_refine`` call, which splits
    the node's vertex off its parent's partition and refines the result,
    and counts against ``max_tree_nodes`` when it is entered.  A leaf off the first
    path that gives an automorphism ends the search below the deepest
    first-path node (the module docstring says why this is exact).
    """
    n = graph.n_nodes
    gens: list[tuple[int, ...]] = []
    first_leaf = None  # node -> position in the first leaf reached
    path: list[_Node] = []  # the inner nodes above the current one
    partition = color_refine(graph, partition_by_colors(graph))
    v = None  # the vertex the current partition individualized
    tree_nodes = 0
    while True:
        tree_nodes += 1
        if tree_nodes > max_tree_nodes:
            return GeneratorSearch(tuple(gens), False, tree_nodes)
        by_label = partition.by_label
        # the cells up to the parent's individualized vertex are singletons
        s = path[-1].label + 1 if path else 0
        while s < n and len(by_label[s]) == 1:
            s += 1
        if s < n:
            if first_leaf is None:
                path.append(_Node(partition, s, gens))
            else:
                stabilizing = [g for g in path[-1].stabilizing if g[v] == v]
                path.append(_Node(partition, s, stabilizing))
        elif first_leaf is None:
            first_leaf = partition.labels
        else:
            perm = tuple([by_label[p][0] for p in first_leaf])
            if is_automorphism(graph, perm):
                gens.append(perm)
                # back to the deepest node on the first path: its current
                # child's subtree is covered by the new generator
                del path[next(i for i, node in enumerate(path) if node.done) + 1:]
        while path:
            v = path[-1].next_vertex()
            if v is not None:
                break
            path.pop()
        else:
            return GeneratorSearch(tuple(gens), True, tree_nodes)
        partition = color_refine(graph, path[-1].partition, v)
