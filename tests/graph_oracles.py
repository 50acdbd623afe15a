"""Reference implementations the graph- and atom-side tests compare against.

None of these is used by the package: they are simple, slow and
independent of the search engine.  `reference_color_refine` is the plain
round-synchronous refinement that recomputes every cell's signature in
every round; `brute_force_automorphisms` enumerates all color-respecting
bijections; `group_closure` lists every element of a small group.
`reference_is_syntactic_symmetry` compares the whole permuted program,
and `reference_detect_rows` grows rows from a pool of every generator and
every product of two, rescanned until no row is added.
`reference_encode_program` builds the graph from a global edge set, and
`reference_parse_program` walks every token of every line through the
checks that name a malformed one.

Graph permutations are dense image tuples over node ids; composition is
left-to-right (apply ``f``, then ``g``).
"""

from collections import Counter
from math import factorial

from symbreak.automorphism import OrderedPartition, identity
from symbreak.encoding import (ATOM_COLOR, BODY_COLOR, CHOICE_HEAD_COLOR,
                               FIRST_VALUE_COLOR, HEAD_COLOR, MINIMIZE_COLOR,
                               NEGATION_COLOR, ColoredGraph)
from symbreak.smodels import (_LAYOUTS, CHOICE, MINIMIZE, WEIGHT, GroundProgram,
                              ParseError, Rule, _atom, _int, semantic_view)
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

    for r in sem.rules:
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
            for a, is_pos, w in r.pairs():
                tn = new_node(value_color[w])
                connect(tn, pos_node(a) if is_pos else neg_node(a))
                connect(tn, bn)
        else:
            for a in r.pos:
                connect(bn, pos_node(a))
            for b in r.neg:
                connect(bn, neg_node(b))

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
    lines = text.splitlines()
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
        if len(parts) != 2:
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
