"""Reference implementations the graph- and atom-side tests compare against.

None of these is used by the package: they are simple, slow and
independent of the search engine.  `reference_color_refine` is the plain
round-synchronous refinement that recomputes every cell's signature in
every round; `brute_force_automorphisms` enumerates all color-respecting
bijections; `group_closure` lists every element of a small group.
`reference_is_syntactic_symmetry` compares the whole permuted program,
and `reference_detect_rows` grows rows from a pool of every generator and
every product of two, rescanned until no row is added.

Graph permutations are dense image tuples over node ids; composition is
left-to-right (apply ``f``, then ``g``).
"""

from collections import Counter
from math import factorial

from symbreak.automorphism import OrderedPartition, identity
from symbreak.encoding import ColoredGraph
from symbreak.smodels import GroundProgram, semantic_view
from symbreak.symmetry import AtomPermutation, RowMatrix, _canonical_matrix


class EnumerationBudgetError(RuntimeError):
    """Brute-force candidate space larger than the configured budget."""


def reference_color_refine(graph: ColoredGraph,
                           partition: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement, every cell rechecked every round.

    Each round signs every node of a non-singleton cell with its neighbor
    count per cell, splits the cell by signature and orders the sub-cells
    by signature, keeping the host cell's position.
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


def compose(f, g) -> tuple[int, ...]:
    """Apply f, then g."""
    return tuple(g[f[v]] for v in range(len(f)))


def color_census(graph: ColoredGraph) -> dict[int, int]:
    """Node count per color; values sum to the node count."""
    return dict(Counter(graph.colors))


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


def compose_atoms(g: AtomPermutation, h: AtomPermutation) -> AtomPermutation:
    """Apply g, then h."""
    return AtomPermutation({a: h.image_of(g.image_of(a)) for a in g.support | h.support})


def reference_is_syntactic_symmetry(program: GroundProgram,
                                    perm: AtomPermutation) -> bool:
    """The permuted semantic view equals the original as a rule multiset."""
    sem = semantic_view(program)
    if sem.false_atom is not None and perm.image_of(sem.false_atom) != sem.false_atom:
        return False
    if any(a < 1 or a > sem.max_atom for a in perm.support):
        return False
    base = Counter(r.key() for r in sem.rules)
    mapped = Counter(r.map_atoms(perm.image_of).key() for r in sem.rules)
    return base == mapped


def reference_detect_rows(program: GroundProgram, gens) -> list[RowMatrix]:
    """Row matrices grown from a pool of the generators and their products.

    The pool holds every non-identity generator, then every non-identity
    product g-then-h, each permutation once.  Each involution seed rescans
    the whole pool until a pass adds no row.
    """
    pool = []
    pool_keys = set()
    products = [compose_atoms(g, h) for g in gens for h in gens]
    for perm in [*gens, *products]:
        if not perm.is_identity and perm.key() not in pool_keys:
            pool.append(perm)
            pool_keys.add(perm.key())

    candidates = []
    seen_matrices = set()
    for seed in gens:
        if not seed.is_involution():
            continue
        pairs = sorted(seed.cycles())
        row_one = tuple(a for a, _ in pairs)
        row_two = tuple(b for _, b in pairs)
        rows = [row_one, row_two]
        used = set(row_one) | set(row_two)
        grew = True
        while grew:
            grew = False
            for cand in pool:
                image = tuple(cand.image_of(a) for a in row_one)
                if len(set(image)) != len(image) or not used.isdisjoint(image):
                    continue
                swap = AtomPermutation.from_cycles(*zip(rows[-1], image))
                if reference_is_syntactic_symmetry(program, swap):
                    rows.append(image)
                    used.update(image)
                    grew = True
        if len(rows) < 3:
            continue
        matrix = _canonical_matrix(rows)
        if matrix.rows in seen_matrices:
            continue
        if all(reference_is_syntactic_symmetry(program, matrix.adjacent_swap(i))
               for i in range(matrix.n_rows - 1)):
            seen_matrices.add(matrix.rows)
            candidates.append(matrix)

    candidates.sort(key=lambda m: (-len(m.atoms), -m.n_rows, min(m.atoms), m.rows))
    chosen = []
    taken = set()
    for m in candidates:
        if taken.isdisjoint(m.atoms):
            chosen.append(m)
            taken |= m.atoms
    return chosen
