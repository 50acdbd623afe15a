"""Atom-level symmetry analysis.

Node automorphisms get restricted to atom permutations, validated as
syntactic symmetries (a hard gate: nothing unsound can flow into
constraint synthesis), and post-processed for breaking power:
row-interchangeability matrices whose full subgroup can be broken
completely, an atom order that matches the generators, and the levels of
the generators' pointwise-stabilizer chain, computed by Schreier-Sims
without any further graph search.  Each level is a base atom with the
strong generators the chain holds there; the pipeline takes binary
clauses from the base atom's orbit under those that pass its checks.

The gate compares the keys of the rules a permutation touches with the
keys of their images, both from ``Rule.key``; row detection asks it once
per distinct swap within a call.

The chain stops at the group order the graph search reports.  The
validated atom permutations generate an image of a subgroup of the
graph's automorphism group, so that order bounds their group's order.
Each level's orbit is closed under strong generators fixing the earlier
base points, a subgroup of the level's true stabilizer, so each partial
orbit lies inside the true one and the product of their sizes is at most
the atom group's order.  Once the product reaches the bound, every level
of the chain is complete and no later sift files a strong generator, so
the levels equal those of the full run.  When the atom group is smaller
than the graph group (a graph automorphism that fixes every atom, or a
generator the gate rejects), or the search ran out of budget and knows
no order, the loop runs to the end.  A wrong order can only stop it
early, with fewer strong generators and orbits cut short.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod

from .encoding import ColoredGraph
from .smodels import GroundProgram


@dataclass(frozen=True)
class AtomPermutation:
    """A permutation of atoms, stored by its non-fixed points only."""

    moved: dict[int, int]

    def __post_init__(self):
        clean = {a: b for a, b in self.moved.items() if a != b}
        if set(clean) != set(clean.values()):
            raise ValueError("not a bijection on its support")
        object.__setattr__(self, "moved", clean)

    @classmethod
    def from_cycles(cls, *cycles) -> "AtomPermutation":
        moved = {}
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                moved[a] = b
        return cls(moved)

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(self.moved)

    @property
    def is_identity(self) -> bool:
        return not self.moved

    def image_of(self, atom: int) -> int:
        return self.moved.get(atom, atom)

    __getitem__ = image_of  # lets ``automorphism.orbit`` take atom permutations

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition; cycles sorted by and starting at their minimum."""
        seen = set()
        out = []
        for start in sorted(self.moved):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            a = self.moved[start]
            while a != start:
                cycle.append(a)
                seen.add(a)
                a = self.moved[a]
            out.append(tuple(cycle))
        return out

    def cycle_of(self, atom: int) -> tuple[int, ...]:
        if atom not in self.moved:
            return (atom,)
        cycle = [atom]
        a = self.moved[atom]
        while a != atom:
            cycle.append(a)
            a = self.moved[a]
        return tuple(cycle)

    def is_involution(self) -> bool:
        return bool(self.moved) and all(self.moved[b] == a
                                        for a, b in self.moved.items())

    def apply_to_set(self, interp) -> frozenset[int]:
        return frozenset(self.image_of(a) for a in interp)

    def key(self):
        return tuple(sorted(self.moved.items()))

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        if not self.moved:
            return "()"
        return "".join("(" + " ".join(str(a) for a in c) + ")"
                       for c in self.cycles())


def restrict_to_atoms(graph: ColoredGraph, node_perm) -> AtomPermutation:
    """Atom permutation induced by a graph automorphism.

    Atom nodes only ever map to atom nodes (color 1 is theirs alone), so
    the restriction is well defined; the reserved false atom has no node
    and can therefore never move.
    """
    moved = {}
    for i, a in enumerate(graph.atoms):
        image = node_perm[2 * i]
        b = graph.node_atom(image)
        if b != a:
            moved[a] = b
    return AtomPermutation(moved)


def is_syntactic_symmetry(program: GroundProgram, perm: AtomPermutation) -> bool:
    """True when the permuted program equals the original as a rule multiset.

    Bodies compare as literal multisets, weight rules and minimize
    statements as multisets of (literal, weight) pairs plus the bound.
    Compute blocks take part through their constraint form, and a
    permutation moving the reserved false atom is never a symmetry.

    Only the rules touching ``perm.support`` are compared, read off the
    program's ``rule_index``: every other rule is its own image, so the
    verdict is the one for the whole program.  Index keys and image keys
    both come from ``Rule.key``, the latter as ``key(perm.moved)``.
    """
    index = program.rule_index
    sem = index.view
    moved = perm.moved
    if sem.false_atom in moved:
        return False
    if any(a < 1 or a > sem.max_atom for a in moved):
        return False
    touched = {i for a in moved for i in index.occurrences.get(a, ())}
    keys, rules = index.keys, sem.rules
    return (Counter(keys[i] for i in touched)
            == Counter(rules[i].key(moved) for i in touched))


@dataclass(frozen=True)
class RowMatrix:
    """Equal-length disjoint atom tuples whose rows may be swapped freely.

    Columns are aligned: exchanging two whole rows, position by position,
    is a syntactic symmetry, so the full row-permutation subgroup is
    available for complete breaking.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("rows must share one length")
        flat = [a for r in self.rows for a in r]
        if len(set(flat)) != len(flat):
            raise ValueError("rows must be pairwise disjoint")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @cached_property
    def atoms(self) -> frozenset[int]:
        return frozenset(a for r in self.rows for a in r)

    def row_swap(self, i: int, j: int) -> AtomPermutation:
        return AtomPermutation.from_cycles(*zip(self.rows[i], self.rows[j]))

    def adjacent_swap(self, i: int) -> AtomPermutation:
        return self.row_swap(i, i + 1)

    def row_map_of(self, perm: AtomPermutation):
        """Row permutation realized by perm, or None.

        Returns the mapping row index -> row index when perm permutes the
        matrix rows column-consistently and moves nothing else; such a
        permutation is already broken completely by the row constraints.
        """
        if not perm.support <= self.atoms:
            return None
        first_col = {row[0]: i for i, row in enumerate(self.rows)}
        get = perm.moved.get
        mapping = {}
        for i, row in enumerate(self.rows):
            j = first_col.get(get(row[0], row[0]))
            if j is None or tuple(map(get, row, row)) != self.rows[j]:
                return None
            mapping[i] = j
        return mapping


def _canonical_matrix(rows) -> RowMatrix:
    """Reorder rows/columns deterministically: the row holding the smallest
    atom comes first with its atoms ascending; other rows sort by column 0."""
    smallest = min(a for r in rows for a in r)
    first = next(r for r in rows if smallest in r)
    col_order = sorted(range(len(first)), key=lambda j: first[j])
    reordered = [tuple(r[j] for j in col_order) for r in rows]
    first = next(r for r in reordered if smallest in r)
    rest = sorted((r for r in reordered if r != first), key=lambda r: r[0])
    return RowMatrix((first, *rest))


def detect_rows(program: GroundProgram, gens) -> list[RowMatrix]:
    """Find row-interchangeability structure among validated generators.

    Seeds are generators that are involutions (disjoint 2-cycles read as
    two aligned rows); rows grow through the images of every accepted row
    under the generators, in one pass over the row list as it grows.
    Every appended row is admitted only if the induced adjacent-row swap
    is itself a syntactic symmetry, so an unsound matrix cannot be
    produced.  Matrices need at least 3 rows to beat plain per-generator
    breaking; overlapping candidates are resolved toward more atoms, then
    more rows.

    One pass over the distinct images is exact.  The rows found so far are
    pairwise disjoint and every adjacent swap among them is a symmetry, so
    any two rows are interchangeable, and for an image X disjoint from
    them swap(rows[-1], X) is a symmetry exactly when swap(row_one, X) is:
    one is the other conjugated by swap(row_one, rows[-1]).  A rejected
    image therefore stays rejected as rows grow, an image that meets a row
    keeps meeting it, and neither a repeated image nor a second pass could
    add a row.  So a row visits only the generators that move its first
    atom, in generator order: the image under any other holds that atom,
    so it meets the row itself.

    Seeds often grow the same rows, and a matrix's adjacent swaps are
    mostly swaps already admitted while growing it, so each distinct swap
    goes to the gate once per call; the verdicts are dropped on return.
    """
    verdicts = {}

    def is_symmetry(perm):
        key = perm.key()
        if key not in verdicts:
            verdicts[key] = is_syntactic_symmetry(program, perm)
        return verdicts[key]

    movers = {}  # atom -> the generators moving it, in generator order
    for g in gens:
        for a in g.support:
            movers.setdefault(a, []).append(g)

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
        seen = set(rows)
        for row in rows:
            for g in movers.get(row[0], ()):
                image = tuple(map(g.moved.get, row, row))
                if image in seen:
                    continue
                seen.add(image)
                if used.isdisjoint(image) and is_symmetry(
                        AtomPermutation.from_cycles(*zip(rows[-1], image))):
                    rows.append(image)
                    used.update(image)
        if len(rows) < 3:
            continue
        matrix = _canonical_matrix(rows)
        if matrix.rows in seen_matrices:
            continue
        if all(is_symmetry(matrix.adjacent_swap(i))
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


@dataclass(frozen=True)
class AtomOrder:
    """Total order on atoms 1..max_atom, as the sequence of atoms by rank."""

    sequence: tuple[int, ...]

    @cached_property
    def rank(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.sequence)}

    def sort_atoms(self, atoms) -> list[int]:
        return sorted(atoms, key=self.rank.__getitem__)


def choose_order(program: GroundProgram, gens, rows) -> AtomOrder:
    """Atom order matched to the detected symmetries.

    Matrix atoms come first in row-major layout, then the remaining
    support of each generator cycle by cycle (generators by ascending
    support size, then smallest support atom), then untouched atoms by
    index.
    """
    sequence = []
    seen = set()

    def push(a):
        if a not in seen:
            seen.add(a)
            sequence.append(a)

    for matrix in rows:
        for row in matrix.rows:
            for a in row:
                push(a)
    for g in sorted(gens, key=lambda g: (len(g.support), min(g.support, default=0))):
        for cycle in g.cycles():
            for a in cycle:
                push(a)
    for a in range(1, program.max_atom + 1):
        push(a)
    return AtomOrder(tuple(sequence))


def _then(f, g) -> tuple[int, ...]:
    """Dense permutation applying f, then g."""
    return tuple(map(g.__getitem__, f))


def stabilizer_binary_symmetries(gens, order: AtomOrder, levels: int = 5,
                                 group_order: int = None
                                 ) -> list[tuple[int, list[AtomPermutation]]]:
    """The first nontrivial levels of a pointwise-stabilizer chain.

    The chain of the group generated by ``gens`` comes from a deterministic,
    incremental Schreier-Sims whose base is the moved atoms in ``order``;
    no graph is searched.  For each of the first ``levels`` levels with a
    nontrivial orbit, the result holds the base atom v and the strong
    generators the chain holds there, which fix every earlier base atom and
    so move nothing ranked below v; v's orbit under them is the level's
    basic orbit.  Binary clauses pair v with the other atoms of that orbit.
    Callers check the strong generators before use all the same.  The name
    is kept for ``perfbench/tracer.py``, which looks the function up by it.

    ``group_order``, an upper bound on the order of the group ``gens``
    generate, stops Schreier-Sims as soon as the product of the basic
    orbit sizes reaches it.  Each level's orbit is closed under strong
    generators that fix the earlier base points, so it lies inside the
    true basic orbit, and the product is at most the group order; when it
    reaches the bound, every level is complete, so no later sift would
    file a strong generator and the levels are those of the full run.  A
    product that never reaches the bound runs the loop to the end.
    """
    base = order.sort_atoms({a for g in gens for a in g.support})
    n = len(base)
    point = {a: i for i, a in enumerate(base)}
    # Level i fixes base points 0..i-1; ``strong[i]`` holds every strong
    # generator that does, whatever level it was filed at, as the orbit of
    # point i needs them all.  ``trans[i]`` maps each orbit point to an
    # element taking point i there and its inverse; ``sifted[i]`` counts per
    # orbit point the strong generators whose Schreier generator was sifted.
    strong = [[] for _ in range(n)]
    trans = [{i: (tuple(range(n)),) * 2} for i in range(n)]
    orbits = [[i] for i in range(n)]
    sifted = [{i: 0} for i in range(n)]

    def sift(g, level):
        """Sift g, which fixes the points below level; file a nontrivial
        residue as a strong generator and return its level."""
        for k in range(level, n):
            if g[k] != k:
                if g[k] not in trans[k]:
                    add_strong(g, k)
                    return k
                g = _then(g, trans[k][g[k]][1])
        return None

    def add_strong(h, first):
        for i in range(first + 1):
            strong[i].append(h)
            orbit, old = orbits[i], len(orbits[i])
            for step, beta in enumerate(orbit):
                for s in (h,) if step < old else strong[i]:
                    gamma = s[beta]
                    if gamma not in trans[i]:
                        u = _then(trans[i][beta][0], s)
                        trans[i][gamma] = u, tuple(sorted(range(n), key=u.__getitem__))
                        orbit.append(gamma)
                        sifted[i][gamma] = 0

    def sift_pending(level):
        """Sift the level's unsifted Schreier generators up to the first
        that files a strong generator; return that one's level."""
        t, done, here = trans[level], sifted[level], strong[level]
        for beta in orbits[level]:
            while done[beta] < len(here):
                s = here[done[beta]]
                done[beta] += 1
                filed = sift(_then(_then(t[beta][0], s), t[s[beta]][1]), level + 1)
                if filed is not None:
                    return filed
        return None

    def filings():
        """Sift the generators, then every level's Schreier generators,
        deepest level first; yield the level of each strong generator
        filed, and go on from that level."""
        for g in gens:
            filed = sift(tuple(point[g.image_of(a)] for a in base), 0)
            if filed is not None:
                yield filed
        level = n - 1
        while level >= 0:
            filed = sift_pending(level)
            if filed is None:
                level -= 1
            else:
                yield filed
                level = filed

    for _ in filings():
        if prod(map(len, orbits)) == group_order:
            break

    def atoms(s):
        return AtomPermutation({base[x]: base[y] for x, y in enumerate(s) if x != y})

    nontrivial = [i for i in range(n) if len(orbits[i]) > 1]
    return [(base[i], list(map(atoms, strong[i]))) for i in nontrivial[:max(levels, 0)]]
