"""Reference implementations the graph- and atom-side tests compare against.

None of these is used by the package: they are simple, slow and
independent of the search engine.  `reference_color_refine` is the plain
round-synchronous refinement that recomputes every node's key in every
round; `reference_find_generators` is the recursive search that
rebuilds each node's partition from cell tuples and refilters its
stabilizer from scratch (it refines with the package's `color_refine`,
which the tests hold to `reference_color_refine`, checks its leaves
with `reference_is_automorphism`, which walks every node and every
edge, and prunes with `reference_orbit`, the closure that applies every
generator to every point reached);
`brute_force_automorphisms` enumerates all color-respecting
bijections; `group_closure` lists every element of a small group, and
`group_order` counts the elements of a larger one.
`reference_is_syntactic_symmetry` compares the whole permuted program,
and `reference_detect_rows` grows rows from a pool of every generator and
every product of two, rescanned until no row is added.
`reference_encode_program` builds the graph from a global edge set,
counting the binary constraints and the unit rules up front, and
`reference_parse_program` walks every token of every line through the
checks that name a malformed one, and `reference_write_program` spells
every rule from its fields.

The fixtures at the top serve the tests only, so the package does not
ship them: `identity`, `dense` and `moved_map` (a permutation as the
package keeps it, the map of the points it moves, to a dense image tuple
and back), `build_graph` (a graph from an edge list), `CountingNeighbors`,
`root_refine_reads` and `search_refine_reads` (neighbor lists that count
their reads, and the counts the root refinement and the whole search
read), `atom_node` and `negation_node` (an encoded atom's literal nodes),
`satisfies` (classical satisfaction of one rule), `map_atoms` (a rule
with its atoms renamed), `unit_slot` (the atom and shape of a unit
rule), `implications` (the (v, w) of each binary
constraint ``<- v, not w``), `reference_reach` (every pair joined by a
path of implications, from a fresh walk out of each node), and
`partition_from_cells` and `cells_of` (an `OrderedPartition` from its
cells and back).

The references' graph permutations are dense image tuples over node ids;
composition is left-to-right (apply ``f``, then ``g``).
"""

from collections import Counter
from math import factorial

from symbreak import automorphism
from symbreak.automorphism import (GeneratorSearch, OrderedPartition, color_refine,
                                   find_generators, partition_by_colors)
from symbreak.encoding import (ATOM_COLOR, BODY_COLOR, CHOICE_HEAD_COLOR,
                               FIRST_VALUE_COLOR, HEAD_COLOR, MINIMIZE_COLOR,
                               NEGATION_COLOR, ColoredGraph)
from symbreak.smodels import (_LAYOUTS, BASIC, CARDINALITY, CHOICE, DISJUNCTIVE,
                              MINIMIZE, WEIGHT, GroundProgram, ParseError, Rule, _atom, _int,
                              semantic_view)
from symbreak.symmetry import AtomPermutation, RowMatrix, _canonical_matrix


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def dense(moved, n: int) -> tuple[int, ...]:
    """The dense image tuple over 0..n-1 of a map of the points it moves."""
    return tuple(map(moved.get, range(n), range(n)))


def moved_map(perm) -> dict[int, int]:
    """The map of the points a dense image tuple moves."""
    return {v: w for v, w in enumerate(perm) if v != w}


def build_graph(colors, edges, atoms=()) -> ColoredGraph:
    """Construct a graph from an edge list, checking it is simple."""
    colors = tuple(colors)
    n = len(colors)
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return ColoredGraph(colors, tuple(tuple(sorted(ns)) for ns in nbrs),
                        tuple(atoms))


class CountingNeighbors(tuple):
    """Neighbor lists that count how often one is read."""

    reads = 0

    def __getitem__(self, i):
        CountingNeighbors.reads += 1
        return tuple.__getitem__(self, i)


def root_refine_reads(graph: ColoredGraph) -> int:
    """The neighbor tuples ``color_refine`` reads refining the graph's
    color partition, as the search's root does."""
    counted = graph._replace(neighbors=CountingNeighbors(graph.neighbors))
    CountingNeighbors.reads = 0
    color_refine(counted, partition_by_colors(counted))
    return CountingNeighbors.reads


def search_refine_reads(graph: ColoredGraph) -> tuple[int, GeneratorSearch]:
    """The neighbor tuples ``color_refine`` reads over the whole search of
    the graph, and the search.  The automorphism checks read the uncounted
    graph."""
    counted = graph._replace(neighbors=CountingNeighbors(graph.neighbors))
    check = automorphism.is_automorphism
    automorphism.is_automorphism = lambda _, perm: check(graph, perm)
    CountingNeighbors.reads = 0
    try:
        search = find_generators(counted)
    finally:
        automorphism.is_automorphism = check
    return CountingNeighbors.reads, search


def atom_node(graph: ColoredGraph, atom: int) -> int:
    """The positive literal node of an encoded atom."""
    return 2 * graph.atoms.index(atom)


def negation_node(graph: ColoredGraph, atom: int) -> int:
    """The negative literal node of an encoded atom."""
    return 2 * graph.atoms.index(atom) + 1


def pairs(rule) -> list[tuple[int, bool, int]]:
    """A weight rule's or minimize statement's weighted literals as
    (atom, is_positive, weight), in wire order."""
    out = [(b, False, w) for b, w in zip(rule.neg, rule.weights)]
    out += [(a, True, w) for a, w in zip(rule.pos, rule.weights[len(rule.neg):])]
    return out


def _body_holds(interp, pos, neg) -> bool:
    return all(a in interp for a in pos) and not any(b in interp for b in neg)


def satisfies(interp, rule) -> bool:
    """Classical satisfaction of one rule by a set of true atoms.

    Choice rules and minimize statements are satisfied by every
    interpretation; their effect lives in stability and in the objective.
    """
    if rule.kind in (CHOICE, MINIMIZE):
        return True
    if any(h in interp for h in rule.heads):
        return True
    if rule.kind == CARDINALITY:
        count = sum(1 for a in rule.pos if a in interp)
        count += sum(1 for b in rule.neg if b not in interp)
        return count < rule.bound
    if rule.kind == WEIGHT:
        total = sum(w for a, is_pos, w in pairs(rule)
                    if (a in interp) == is_pos)
        return total < rule.bound
    return not _body_holds(interp, rule.pos, rule.neg)


def map_atoms(rule: Rule, f) -> Rule:
    """The same rule with every atom a replaced by f(a)."""
    return Rule(rule.kind, tuple(map(f, rule.heads)), tuple(map(f, rule.pos)),
                tuple(map(f, rule.neg)), rule.bound, rule.weights)


def unit_slot(rule: Rule, false_atom: int):
    """(atom, slot) of a unit rule of a view with the given false atom, with
    slots 0-3 for ``{a}.``, ``a.``, ``<- a.`` and ``<- not a.``; else None."""
    body = rule.pos + rule.neg
    constraint = rule.kind == BASIC and rule.heads == (false_atom,)
    if rule.kind == CHOICE and len(rule.heads) == 1 and not body:
        return rule.heads[0], 0
    if rule.kind == BASIC and not constraint and not body:
        return rule.heads[0], 1
    if constraint and len(body) == 1:
        return body[0], 2 if rule.pos else 3
    return None


def implications(rules, head: int) -> set[tuple[int, int]]:
    """(v, w) for each basic rule ``head <- v, not w`` among ``rules``."""
    return {(r.pos[0], r.neg[0]) for r in rules
            if r.kind == BASIC and r.heads == (head,) and len(r.pos) == len(r.neg) == 1}


def reference_reach(edges) -> set[tuple[int, int]]:
    """The transitive closure of a set of (v, w) edges: every (v, w) with a
    path of one or more edges from v to w."""
    successors = {}
    for v, w in edges:
        successors.setdefault(v, set()).add(w)
    closure = set()
    for v, ws in successors.items():
        seen, stack = set(), list(ws)
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(successors.get(w, ()))
        closure.update((v, w) for w in seen)
    return closure


def partition_from_cells(cells) -> OrderedPartition:
    """The partition with the given cells in order, each sorted."""
    labels = [0] * sum(map(len, cells))
    by_label = [None] * len(labels)
    start = 0
    for cell in cells:
        by_label[start] = tuple(sorted(cell))
        for v in cell:
            labels[v] = start
        start += len(cell)
    return OrderedPartition(labels, by_label)


def cells_of(partition: OrderedPartition) -> tuple[tuple[int, ...], ...]:
    """The partition's cells in order."""
    return tuple(filter(None, partition.by_label))


class EnumerationBudgetError(RuntimeError):
    """Brute-force candidate space larger than the configured budget."""


def reference_color_refine(graph: ColoredGraph,
                           partition: OrderedPartition) -> OrderedPartition:
    """Coarsest equitable refinement, every cell rechecked every round.

    Each round keys every node of a non-singleton cell with the sorted
    tuple of its neighbors' cells, splits the cell by key and orders the
    sub-cells by key, keeping the host cell's position.  Cells are
    numbered in order, so the keys compare as the package's keys of cell
    positions do, and the result is the package's, cell for cell.
    """
    cells = list(cells_of(partition))
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
                key = tuple(sorted(index[u] for u in nbrs[v]))
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(tuple(sorted(groups[key])))
        cells = new_cells
        if not changed:
            return partition_from_cells(cells)


def reference_find_generators(graph: ColoredGraph,
                              max_tree_nodes: int = 10 ** 6) -> GeneratorSearch:
    """The individualization-refinement search as a plain recursion.

    Every node rebuilds its partition from cell tuples, and every sibling
    re-filters all generators found so far against the node's whole base.
    It never backjumps, so it visits a larger tree than the package search
    and may return more generators; the two must generate the same group.
    """
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
        cells = cells_of(partition)
        cell_index = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if cell_index is None:
            order = tuple(c[0] for c in cells)
            if state["first_leaf"] is None:
                state["first_leaf"] = order
                return
            image = [0] * n
            for a, b in zip(state["first_leaf"], order):
                image[a] = b
            perm = tuple(image)
            if perm != ident and perm not in gen_keys and reference_is_automorphism(graph, perm):
                gens.append(perm)
                gen_keys.add(perm)
            return
        cell = cells[cell_index]
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
                    reached |= reference_orbit(stabilizing, w)
            covered = len(done)
            if v in reached:
                continue
            split = list(cells)
            split[cell_index:cell_index + 1] = [(v,), tuple(w for w in cell if w != v)]
            child = color_refine(graph, partition_from_cells(split), v)
            dfs(child, base + (v,))
            done.append(v)

    dfs(root, ())
    return GeneratorSearch(tuple(gens), not state["exhausted"], state["count"])


def reference_orbit(gens, seed: int) -> frozenset:
    """Closure of {seed} under dense permutations, every generator applied
    to every point reached."""
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


def reference_is_automorphism(graph: ColoredGraph, perm) -> bool:
    """Whether the permutation keeps the color of every node and maps
    every edge onto an edge, checked over the whole graph."""
    colors = graph.colors
    if any(colors[v] != colors[perm[v]] for v in range(graph.n_nodes)):
        return False
    adjacency = [frozenset(ns) for ns in graph.neighbors]
    return all(perm[v] in adjacency[perm[u]] for u, v in graph.edges())


def compose(f, g) -> tuple[int, ...]:
    """Apply f, then g."""
    return tuple(g[f[v]] for v in range(len(f)))


def color_census(graph: ColoredGraph) -> dict[int, int]:
    """Node count per color; values sum to the node count."""
    return dict(Counter(graph.colors))


def brute_force_automorphisms(graph: ColoredGraph, budget: int = 10 ** 7) -> list:
    """All automorphisms by exhaustive color-respecting enumeration.

    Independent of the refinement machinery: candidates are built node by
    node, in breadth-first order, inside color classes and filtered by
    degree and by edge preservation against the already-mapped prefix.
    The candidate space (product of color class factorials) must fit the
    budget.
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
    # breadth-first from the color-sorted nodes, so that every node but the
    # first of its component meets a mapped neighbour when it is mapped
    order = []
    seen = set()
    for root in sorted(range(n), key=lambda v: (graph.colors[v], v)):
        if root not in seen:
            seen.add(root)
            component = [root]
            for u in component:
                for w in graph.neighbors[u]:
                    if w not in seen:
                        seen.add(w)
                        component.append(w)
            order += component
    adjacency = [frozenset(ns) for ns in graph.neighbors]
    out = []
    image = [None] * n
    used = set()

    def extend(i: int):
        if i == n:
            out.append(tuple(image))
            return
        v = order[i]
        for w in classes[graph.colors[v]]:
            if w in used or len(adjacency[w]) != len(adjacency[v]):
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


def inverse(g) -> tuple[int, ...]:
    inv = [0] * len(g)
    for v, w in enumerate(g):
        inv[w] = v
    return tuple(inv)


def group_order(gens, n: int) -> int:
    """Order of the group gens generate, by a plain Schreier-Sims.

    Each residue that sifts through the chain is filed as a strong
    generator at the level where it stopped, and at every shallower one;
    a new level takes the residue's first moved point as its base point.
    Levels are checked deepest first; a level is checked by sifting every
    Schreier generator into the levels below it, with its transversal
    rebuilt from scratch whenever a strong generator is filed there.
    """
    ident = identity(n)
    base, strong, trans = [], [], []

    def rebuild(i):
        t = {base[i]: (ident, ident)}
        frontier = [base[i]]
        for x in frontier:
            for s in strong[i]:
                if s[x] not in t:
                    u = compose(t[x][0], s)
                    t[s[x]] = (u, inverse(u))
                    frontier.append(s[x])
        trans[i] = t

    def sift(g, start):
        for i in range(start, len(base)):
            u = trans[i].get(g[base[i]])
            if u is None:
                return g, i
            g = compose(g, u[1])
        return g, len(base)

    def file(g, level):
        if level == len(base):
            base.append(next(x for x in range(n) if g[x] != x))
            strong.append([])
            trans.append(None)
        for i in range(level + 1):
            strong[i].append(g)
            rebuild(i)

    def check(i):
        """The level of the first strong generator filed, or None."""
        for x, (u, _) in list(trans[i].items()):
            for s in strong[i]:
                residue, j = sift(compose(compose(u, s), trans[i][s[x]][1]), i + 1)
                if residue != ident:
                    file(residue, j)
                    return j
        return None

    for g in gens:
        residue, j = sift(tuple(g), 0)
        if residue != ident:
            file(residue, j)
    level = len(base) - 1
    while level >= 0:
        filed = check(level)
        level = level - 1 if filed is None else filed
    order = 1
    for t in trans:
        order *= len(t)
    return order


def compose_atoms(g: AtomPermutation, h: AtomPermutation) -> AtomPermutation:
    """Apply g, then h."""
    return AtomPermutation({a: h.image_of(g.image_of(a)) for a in g.moved.keys() | h.moved.keys()})


def reference_is_syntactic_symmetry(program: GroundProgram,
                                    perm: AtomPermutation) -> bool:
    """The permuted semantic view equals the original as a rule multiset."""
    sem = semantic_view(program)
    if sem.false_atom is not None and perm.image_of(sem.false_atom) != sem.false_atom:
        return False
    if any(a < 1 or a > program.max_atom for a in perm.moved):
        return False
    base = Counter(r.key() for r in sem.rules)
    mapped = Counter(map_atoms(r, perm.image_of).key() for r in sem.rules)
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


def reference_encode_program(program: GroundProgram) -> ColoredGraph:
    """`encode_program` through a global set of edge tuples, one closure
    call per edge."""
    sem = semantic_view(program)
    atoms = sem.atoms
    index = {a: i for i, a in enumerate(atoms)}
    colors = []
    for _ in atoms:
        colors.append(ATOM_COLOR)
        colors.append(NEGATION_COLOR)
    edges = set()
    for i in range(len(atoms)):
        edges.add((2 * i, 2 * i + 1))

    values = set()
    for r in sem.rules:
        if r.bound is not None:
            values.add(r.bound)
        values.update(r.weights)
    value_color = {v: FIRST_VALUE_COLOR + i for i, v in enumerate(sorted(values))}

    def new_node(color: int) -> int:
        colors.append(color)
        return len(colors) - 1

    def pos_node(a: int) -> int:
        return 2 * index[a]

    def neg_node(a: int) -> int:
        return 2 * index[a] + 1

    def connect(u: int, v: int):
        edges.add((min(u, v), max(u, v)))

    def binary_pair(r: Rule):
        """The two literal nodes of ``<- a, b`` or ``<- not a, not b`` on
        two atoms, else None."""
        if r.kind != BASIC or r.heads != (sem.false_atom,) or (r.pos and r.neg):
            return None
        lits = {pos_node(a) for a in r.pos} | {neg_node(b) for b in r.neg}
        if len(r.pos) + len(r.neg) != 2 or len(lits) != 2:
            return None
        return frozenset(lits)

    # a pair seen once is one edge; repeated pairs get rule nodes at the end.
    # A unit rule gets no node but counts towards its atom's color.  Rule
    # nodes follow the sorted rules
    rules = sorted(sem.rules)
    counts = Counter(filter(None, map(binary_pair, rules)))
    units = Counter(filter(None, (unit_slot(r, sem.false_atom) for r in rules)))
    for r in rules:
        pair = binary_pair(r)
        if pair is not None or unit_slot(r, sem.false_atom) is not None:
            if counts[pair] == 1:
                connect(*pair)
            continue
        if r.kind == MINIMIZE:
            bn = new_node(MINIMIZE_COLOR)
        else:
            hn = new_node(CHOICE_HEAD_COLOR if r.kind == CHOICE else HEAD_COLOR)
            bn = new_node(BODY_COLOR if r.bound is None else value_color[r.bound])
            connect(hn, bn)
            for h in r.heads:
                if h != sem.false_atom:
                    connect(hn, pos_node(h))
        if r.kind in (WEIGHT, MINIMIZE):
            for a, is_pos, w in pairs(r):
                tn = new_node(value_color[w])
                connect(tn, pos_node(a) if is_pos else neg_node(a))
                connect(tn, bn)
        else:
            for a in r.pos:
                connect(bn, pos_node(a))
            for b in r.neg:
                connect(bn, neg_node(b))
    for pair, n in counts.items():
        if n > 1:
            for _ in range(n):
                hn = new_node(HEAD_COLOR)
                bn = new_node(BODY_COLOR)
                connect(hn, bn)
                for u in pair:
                    connect(bn, u)

    vectors = {a: tuple(units[a, slot] for slot in range(4)) for a, _ in units}
    first = FIRST_VALUE_COLOR + len(values)
    for rank, vector in enumerate(sorted(set(vectors.values()))):
        for a, v in vectors.items():
            if v == vector:
                colors[pos_node(a)] = first + rank

    nbrs = [[] for _ in range(len(colors))]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return ColoredGraph(tuple(colors), tuple(tuple(sorted(ns)) for ns in nbrs),
                        atoms)


class _Cursor:
    """Token cursor over one rule line with truncation checks."""

    def __init__(self, values: list[int], line_no: int):
        self.values = values
        self.i = 0
        self.line_no = line_no

    def take(self) -> int:
        if self.i >= len(self.values):
            raise ParseError(self.line_no, "truncated rule")
        v = self.values[self.i]
        self.i += 1
        return v

    def take_atoms(self, n: int) -> tuple[int, ...]:
        return tuple(_atom(self.take(), self.line_no) for _ in range(n))

    def remaining(self) -> int:
        return len(self.values) - self.i

    def finish(self):
        if self.i != len(self.values):
            raise ParseError(self.line_no, "unexpected trailing tokens on rule line")


def _reference_parse_rule(values: list[int], line_no: int) -> Rule:
    cur = _Cursor(values, line_no)
    kind = cur.take()
    layout = _LAYOUTS.get(kind)
    if layout is None:
        raise ParseError(line_no, f"unknown rule type {kind}")
    if layout.n_heads is None:
        heads = cur.take_atoms(cur.take())
    elif layout.n_heads == 1:
        heads = (_atom(cur.take(), line_no),)
    else:
        heads = ()
        zero = cur.take()
        if zero != 0:
            raise ParseError(line_no, f"minimize statement must carry a 0 head slot, got {zero}")
    bound = cur.take() if layout.bound == "before" else None
    nlit, nneg = cur.take(), cur.take()
    if layout.bound == "after":
        bound = cur.take()
    if nneg > nlit:
        raise ParseError(line_no, f"negative count {nneg} exceeds literal count {nlit}")
    neg = cur.take_atoms(nneg)
    pos = cur.take_atoms(nlit - nneg)
    weights = ()
    if layout.weighted:
        if cur.remaining() != nlit:
            raise ParseError(line_no,
                             f"weight count mismatch: {nlit} literals, {cur.remaining()} weights")
        weights = tuple(cur.take() for _ in range(nlit))
    cur.finish()
    return Rule(kind, heads, pos, neg, bound, weights)


def reference_parse_program(text) -> GroundProgram:
    """`parse_program` token by token: every token through `_int`, every
    rule through a cursor that checks each take, `max_atom` left to
    `GroundProgram` to compute."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(text.count(b"\n", 0, exc.start) + 1,
                             f"byte 0x{text[exc.start]:02x} is not valid UTF-8") from None
    lines = text.split("\n")  # a carriage return before it is whitespace
    if not lines[-1]:
        lines.pop()
    pos = 0

    def next_line(what: str) -> tuple[str, int]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line.strip():
                return line.strip(), pos
        raise ParseError(len(lines) + 1, f"unexpected end of input, expected {what}")

    rules = []
    while True:
        line, line_no = next_line("a rule or the rules terminator 0")
        toks = line.split()
        values = [_int(t, line_no) for t in toks]
        if values == [0]:
            break
        rules.append(_reference_parse_rule(values, line_no))

    symbols: dict[int, str] = {}
    names_seen = set()
    while True:
        line, line_no = next_line("a symbol or the symbol terminator 0")
        if line == "0":
            break
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or "\r" in line:  # as for validate, no name holds a CR
            raise ParseError(line_no, "symbol line must be '<atom> <name>'")
        atom = _atom(_int(parts[0], line_no), line_no)
        name = parts[1].strip()
        if name in names_seen:
            raise ParseError(line_no, f"duplicate symbol name {name!r}")
        if atom in symbols:
            raise ParseError(line_no, f"atom {atom} already has a name")
        names_seen.add(name)
        symbols[atom] = name

    def compute_block(header: str) -> tuple[int, ...]:
        line, line_no = next_line(f"the {header} header")
        if line != header:
            raise ParseError(line_no, f"expected {header} section header, got {line!r}")
        atoms = []
        while True:
            line, line_no = next_line(f"an atom or the {header} terminator 0")
            if line == "0":
                return tuple(atoms)
            toks = line.split()
            if len(toks) != 1:
                raise ParseError(line_no, f"{header} lines carry one atom each")
            atoms.append(_atom(_int(toks[0], line_no), line_no))

    plus = compute_block("B+")
    minus = compute_block("B-")

    line, line_no = next_line("the model count")
    toks = line.split()
    if len(toks) != 1:
        raise ParseError(line_no, "model count line carries one integer")
    models = _int(toks[0], line_no)

    while pos < len(lines):
        if lines[pos].strip():
            raise ParseError(pos + 1, "unexpected content after the model count")
        pos += 1

    return GroundProgram(tuple(rules), symbols, plus, minus, models)


def reference_write_program(program: GroundProgram) -> str:
    """`write_program` rule by rule: each wire line spelled from the
    rule's fields, whatever text the program was read from."""
    out = []
    for kind, heads, pos, neg, bound, weights in program.rules:
        counts = [len(pos) + len(neg), len(neg)]
        if kind in (CHOICE, DISJUNCTIVE):
            parts = [kind, len(heads), *heads, *counts]
        elif kind == MINIMIZE:
            parts = [kind, 0, *counts]
        elif kind == WEIGHT:
            parts = [kind, *heads, bound, *counts]
        elif kind == CARDINALITY:
            parts = [kind, *heads, *counts, bound]
        else:
            assert kind == BASIC, kind
            parts = [kind, *heads, *counts]
        out.append(" ".join(map(str, [*parts, *neg, *pos, *weights])))
    out += ["0", *(f"{a} {name}" for a, name in program.symbols.items()), "0",
            "B+", *map(str, program.compute_plus), "0",
            "B-", *map(str, program.compute_minus), "0", str(program.model_count)]
    return "\n".join(out) + "\n"
