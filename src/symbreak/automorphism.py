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

A node off the first path need not dive to a leaf to find the
automorphism below it (saucy's check for sparse symmetries: Darga,
Sakallah & Markov, DAC 2008).  The search keeps the first path's
partition at each depth, the first leaf's included, and compares each
node off it, once refined, with the one at its own depth.  When every
label starts a cell of the same size in both, let g map each cell of the
first path's partition onto this node's cell of the same label, position
by position.  Every cell ascends, so g keeps the order of each cell.  If
g is an automorphism, the dive below the node goes on as the first path
did: refinement commutes with relabelling, so g maps each partition of
the first path onto the dive's at the same depth, cell onto cell of the
same label.  A split keeps the order of its host cell, so every cell
below lies in order in a cell g maps position by position, and g is the
positional map between the two partitions at every depth below as well.
The dive splits off the first vertex of its first non-singleton cell,
which is g's image of the vertex the first path split off there.  Down to
the leaves, then, g is the map from the first leaf to the dive's first
leaf, the automorphism that leaf would have given, and the node is taken
as that leaf: g is a generator, and the search jumps back.  A map that is
no automorphism only means the dive goes on, so the generators and
everything built from them are those of the dives, and only the tree
shrinks.  A leaf is checked the same way: its cells are all singletons,
so g is the map from the first leaf.  A leaf at another depth than the
first leaf never gives an automorphism.  A split or a refinement keeps
the nodes of each cell in the positions that cell covers, so the map
between two leaves keeps every cell of their deepest common node in
place.  If it is an automorphism, it takes the vertex split off on one
path to the one split off at the same position on the other, and by
induction takes each partition of one path onto the other's at the same
depth, down to leaves at the same depth.  The partitions kept are those
of the first path, all alive at the first leaf anyway.

How much the tree shrinks depends on the node ids: the map is an
automorphism only when some automorphism maps each cell onto its image
in ascending order.  Literal nodes follow their atoms, unit rules are
colors of their atoms and have no nodes, and `encode_program` numbers the
other rules' nodes in the order of the sorted rules, so rule nodes of one
shape ascend as their atoms do, whatever the order of the input's lines.

Each tree node costs work in proportion to what it changes.  The search
is depth first over an explicit stack of the inner nodes on the current
path, so no depth hits the recursion limit.  A node keeps the labelled
partition refinement works on (``OrderedPartition.labels`` and
``by_label``); `color_refine` copies both lists once, splits the child's
vertex off its cell on the copy and relabels only that cell.

Orbit pruning at a node uses the generators found so far that fix its
base pointwise.  As refinement is invariant under relabelling, they map
each cell of the node's partition onto itself; the cell ascends, and each
earlier vertex was searched or lies in the orbit of one that was, so a
vertex is searched exactly when it is the least of its orbit (`Orbits`).
Backjumping decides in advance which generators fix a base:

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
with every generator, so first-path nodes share the live list of them
and its `Orbits`.  By (I3) an off-path node never sees a generator it was
not made with: it keeps the snapshot of its parent's list that fixes its
own vertex, taken when it is made, and nodes need not store their bases.

`color_refine` works in rounds, and every round splits each cell against
the partition the round started from.  A node's key is the sorted tuple
of its neighbors' labels, and a cell's groups of equal keys are ordered
by plain tuple comparison.  Labels are cell positions, so renaming the
nodes maps every key onto an equal key, and each round, hence the whole
refinement, commutes with the renaming.  That is all the search above
asks of the order: any order invariant under relabelling finds the same
group, through a generating set and a tree that may differ (McKay &
Piperno, J. Symb. Comput. 2014).  After a round every cell is equitable
with respect to the partition that round started from: all its nodes
have equal neighbor counts into each cell of it.  The savings below
follow from this invariant; each skips only work whose outcome is known,
so every round ends with the cells, in the order, of a refinement that
rechecks every cell (``reference_color_refine`` in the tests).

- Skip one fragment.  When a cell S splits, one fragment, the largest, is
  left out when marking what to recheck.  A cell whose nodes see no node
  of the other fragments had equal counts into S, so they have equal
  counts into the fragment left out, and cannot split on S.  The next
  round rechecks only cells holding a neighbor of a fragment not left out.
- Mark only when it pays.  A round that keyed every node and left over
  half the n nodes outside its largest fragments marks nothing, and the
  next round keys every node.  That is at most n < 2 * those nodes keys,
  and a node is outside its cell's largest fragment at most log2 n times
  (Hopcroft's smaller half), so such rounds cost O(n log n) in all.
- Key only marked nodes.  By the same argument, the nodes of a rechecked
  cell that see none of those fragments share one key, so one of them is
  keyed for all.  A cell whose nodes are all marked is keyed whole.
- Seed the first round.  The search refines an equitable partition with
  one vertex v split off its cell: given ``individualized=v``,
  `color_refine` splits v off first, on its copy.  {v} and the rest of
  the cell are the fragments of a split equitable cell, with the rest
  left out, so the first round marks v's neighbors only.  Without it
  (the root call, arbitrary partitions) the first round keys every node.
- Key low degrees directly.  A node of degree at most 2 gets its key
  from a comparison, not from a sort.
- The rest is a group of its own.  Every marked node of a rechecked cell
  sees a node of a fragment not left out, which is a cell of the round's
  partition, and no unmarked node does, so their keys differ.
- A split's fragments come in order.  Every cell ascends: color classes
  do, any `OrderedPartition` does by its definition, and a split keeps
  the order of the cell, since a group's members and the rest of an
  individualized vertex's cell arrive in it.  So fragments need no sort.
- Relabel and mark in one step.  Full rounds and marking rounds share
  it: each split marks the neighbors of its fragments but the largest,
  unless the round is full, then relabels its fragments.  Marking reads
  neighbor lists, not labels, so the order of the two does not matter.
  The first fragment keeps the cell's label in either kind of round, so
  its nodes keep theirs and none of them is written.

A permutation is the map of the nodes it moves to their images (saucy
keeps each by its support: Darga, Sakallah & Markov, DAC 2008); a node
the map does not hold is fixed.
"""

from collections import defaultdict
from typing import NamedTuple

from .encoding import ColoredGraph

__all__ = [
    "OrderedPartition", "partition_by_colors", "color_refine",
    "GeneratorSearch", "find_generators", "Orbits", "is_automorphism",
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


def partition_by_colors(graph: ColoredGraph) -> OrderedPartition:
    """The color classes by ascending color, each listing its nodes in
    ascending order, as a labelled partition."""
    colors = graph.colors
    classes = defaultdict(list)
    for v, c in enumerate(colors):  # in ascending order
        classes[c].append(v)
    by_label = [None] * len(colors)
    first = {}
    start = 0
    for c in sorted(classes):
        first[c] = start
        by_label[start] = tuple(classes[c])
        start += len(by_label[start])
    return OrderedPartition(list(map(first.__getitem__, colors)), by_label)


def color_refine(graph: ColoredGraph, partition: OrderedPartition,
                 individualized: int = None) -> OrderedPartition:
    """Coarsest equitable refinement of the partition.

    Two nodes stay in one cell only while they have equal neighbor counts
    into every cell.  Splits keep the host cell's position, sub-cells
    ordered by their nodes' sorted tuples of neighbor labels, compared as
    tuples.  Labels are cell positions, so the result is deterministic and
    invariant under relabeling, the one property of the order that keeps
    the search exact.

    When ``individualized`` names a vertex v of an equitable partition, v
    is first split off its cell into a singleton cell just before the rest
    of it, which is nothing to do when v is a singleton already.

    Every round splits each cell against the partition the round started
    from, in the same three steps: it finds the cells to check, keys their
    nodes, and relabels each cell that split, marking the neighbors of its
    fragments but the largest unless the round is full.  The round is
    full when it checked every cell and left over half the nodes outside
    its largest fragments; it marks nothing, and the next round checks
    every cell.  The first round checks every cell, or, given
    ``individualized``, only the cells holding a neighbor of v.  Other
    rounds check only the cells holding a marked node, and only the
    marked nodes are keyed one by one (the module docstring says why this
    and the other shortcuts are exact).  The refinement ends at the first
    round with no cell to check.  A cell is labelled by the position of
    its first node in the concatenated cells, so a split relabels only
    the nodes of its fragments after the first, and the labels order the
    cells as their positions do.  The split and the refinement work on one
    copy of the partition's labelling, never on the partition itself, and
    the result carries the refined labelling.
    """
    nbrs = graph.neighbors
    index = partition.labels.copy()
    cells = partition.by_label.copy()
    if individualized is None:
        marked = None  # every node of a pending cell is keyed
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
    while True:
        pending = [s for s in (set(index) if marked is None
                               else set(map(index.__getitem__, marked)))
                   if len(cells[s]) > 1]
        if not pending:
            return OrderedPartition(index, cells)
        splits = []
        for s in pending:
            cell = cells[s]
            rest = None
            if marked is None or marked.issuperset(cell):
                keyed = cell
            else:
                # unmarked nodes share one key: key the first of them
                keyed = [v for v in cell if v in marked]
                rest = [v for v in cell if v not in marked]
                keyed.append(rest[0])
            # keys are the nodes' sorted neighbor labels
            groups = {}
            for v in keyed:
                ns = nbrs[v]
                d = len(ns)
                if d == 2:
                    a = index[ns[0]]
                    b = index[ns[1]]
                    key = (a, b) if a <= b else (b, a)
                elif d > 2:
                    key = tuple(sorted(map(index.__getitem__, ns)))
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
        # a full round, one in which most nodes would be marked, marks
        # nothing, and the next round keys every node again
        full = marked is None and 2 * sum(len(cells[s]) - max(map(len, fragments))
                                          for s, fragments in splits) > len(index)
        marked = None if full else set()
        for s, fragments in splits:
            if not full:  # mark the neighbors of every fragment but the largest
                skipped = max(fragments, key=len)
                for fragment in fragments:
                    if fragment is not skipped:
                        for v in fragment:
                            marked.update(nbrs[v])
            # the first fragment keeps the cell's label, so its nodes keep theirs
            cells[s] = fragments[0]
            s += len(fragments[0])
            for fragment in fragments[1:]:
                cells[s] = fragment
                for v in fragment:
                    index[v] = s
                s += len(fragment)


def is_automorphism(graph: ColoredGraph, perm: dict) -> bool:
    """Whether the permutation keeps every color and maps edges onto edges.

    Only the nodes ``perm`` moves are checked, each for its color and for
    its neighbors' images being its image's neighbors, so the cost is the
    permutation's support, not the graph (saucy's sparsity: Darga,
    Sakallah & Markov, DAC 2008).  That is exact for a permutation: a
    fixed node v keeps its color, and if u is a neighbor of v, then u is
    fixed or, as v is u's neighbor, u's check puts v = perm[v] among the
    neighbors of perm[u].  Either way perm[u] is a neighbor of v, so
    perm maps the neighbors of v into them, and onto them, being
    one-to-one.  A moved node's images are distinct and every neighbor
    tuple strictly ascends, so they are its image's neighbors exactly
    when, sorted, they equal that tuple; no other node's tuple is read.
    """
    colors = graph.colors
    nbrs = graph.neighbors
    image = perm.get
    for v, w in perm.items():
        ns = nbrs[v]
        if colors[v] != colors[w] or nbrs[w] != tuple(sorted(map(image, ns, ns))):
            return False
    return True


class Orbits:
    """Orbits of the group the merged maps generate: a union-find whose
    roots are the least points of their orbits (nauty's orbit array: McKay
    & Piperno, J. Symb. Comput. 2014).  ``parent`` holds only the points
    that are no root, so `merge` costs the map's support."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def least(self, v: int) -> int:
        parent = self.parent
        while v in parent:
            p = parent[v]
            parent[v] = v = parent.get(p, p)  # halve the path
        return v

    def merge(self, perm: dict) -> None:
        """Join each moved point's orbit with its image's."""
        parent = self.parent
        least = self.least
        for v, w in perm.items():
            v, w = least(v), least(w)
            if v < w:
                parent[w] = v
            elif w < v:
                parent[v] = w

    def orbit(self, v: int) -> list:
        """v's orbit, ascending."""
        root = self.least(v)
        return [root] + sorted(w for w in self.parent if self.least(w) == root)


class GeneratorSearch(NamedTuple):
    """Result of an automorphism search.

    Each of ``generators`` is the map ``{node: image}`` of the nodes the
    automorphism moves.  ``complete`` is False when the tree-node budget
    ran out; the generators found so far are still genuine automorphisms,
    so anything built from them stays sound, merely weaker.
    """

    generators: tuple[dict[int, int], ...]
    complete: bool
    tree_nodes: int


class _Node:
    """An inner node of the search tree: its partition, the label of its
    first non-singleton cell, the loop over that cell, and the found
    generators fixing its base with their `Orbits` (built from an off-path
    node's snapshot only when a second vertex is asked for)."""

    __slots__ = ("partition", "label", "todo", "stabilizing", "orbits")

    def __init__(self, partition, label, stabilizing, orbits=None):
        self.partition = partition
        self.label = label
        self.todo = iter(partition.by_label[label])
        self.stabilizing = stabilizing
        self.orbits = orbits

    def next_vertex(self):
        """The cell's next vertex least in its orbit, or None when done."""
        orbits = self.orbits
        if orbits is None:
            orbits = self.orbits = Orbits()
            for g in self.stabilizing:
                orbits.merge(g)
        least = orbits.least
        for v in self.todo:
            if least(v) == v:
                return v
        return None


def _early_map(first_path, depth, partition):
    """The map from the first path's partition at ``depth`` onto this
    node's, or None when their cells differ in shape or the first path
    does not reach ``depth``.

    The shapes agree when every label starts a cell of the same size in
    both; the map then takes each cell of the first path's partition onto
    this node's cell of the same label, position by position, and holds
    the nodes it moves.  The scan stops at the first label whose cells
    differ in size; every cell before it has the same size in both, so
    both partitions start a cell at each label up to it, or neither does.
    """
    if depth >= len(first_path):
        return None
    perm = {}
    for a, b in zip(first_path[depth].by_label, partition.by_label):
        if a is b:  # no cell starts here, or both share one
            continue
        if len(a) != len(b):
            return None
        for v, w in zip(a, b):
            if v != w:
                perm[v] = w
    return perm


def find_generators(graph: ColoredGraph, max_tree_nodes: int = 10 ** 6) -> GeneratorSearch:
    """Generators of the automorphism group via individualization-refinement.

    Depth first, with the inner nodes of the current path on an explicit
    stack, so the depth of the tree is bounded by memory, not by the
    recursion limit.  Nodes on the first path prune with every generator
    found; a node off it with the generators that fixed its base when it
    was made.  Each tree node costs one ``color_refine`` call, which splits
    the node's vertex off its parent's partition and refines the result,
    and counts against ``max_tree_nodes`` when it is entered.  Each node
    off the first path, leaves included, whose cells have the sizes of the
    first path's at its depth, label by label, is checked with the map
    between the two partitions, cell by cell and position by position.  A
    map that is an automorphism is a generator and ends the search below
    the deepest first-path node (the module docstring says why this is
    exact).
    """
    n = graph.n_nodes
    gens: list[dict[int, int]] = []
    orbits = Orbits()  # under gens, shared by the first path's nodes
    on_first_path = True
    first_path: list[OrderedPartition] = []  # its partitions by depth
    path: list[_Node] = []  # the inner nodes above the current one
    partition = color_refine(graph, partition_by_colors(graph))
    v = None  # the vertex the current partition individualized
    tree_nodes = 0
    while True:
        tree_nodes += 1
        if tree_nodes > max_tree_nodes:
            return GeneratorSearch(tuple(gens), False, tree_nodes)
        by_label = partition.by_label
        # the cells up to the parent's individualized vertex are singletons,
        # and s starts a cell; a cell of size k leaves k - 1 positions
        # unlabelled after its start, so the first None at or after s
        # follows the start of the first cell there of size 2 or more
        s = path[-1].label + 1 if path else 0
        try:
            s = by_label.index(None, s) - 1
        except ValueError:  # discrete
            s = n
        node = None
        if on_first_path:
            first_path.append(partition)
            if s < n:
                node = _Node(partition, s, gens, orbits)
            else:
                on_first_path = False
        else:
            perm = _early_map(first_path, len(path), partition)
            if perm is not None and is_automorphism(graph, perm):
                gens.append(perm)
                orbits.merge(perm)
                # back to the deepest node on the first path: its current
                # child's subtree is covered by the new generator
                while path[-1].stabilizing is not gens:
                    path.pop()
            elif s < n:
                node = _Node(partition, s, [g for g in path[-1].stabilizing if v not in g])
        if node is not None:
            path.append(node)
            v = next(node.todo)  # the least of its cell
        else:
            while path:
                v = path[-1].next_vertex()
                if v is not None:
                    break
                path.pop()
            else:
                return GeneratorSearch(tuple(gens), True, tree_nodes)
        partition = color_refine(graph, path[-1].partition, v)
