"""Atom-level symmetry analysis.

Node automorphisms get restricted to atom permutations, validated as
syntactic symmetries (a hard gate: nothing unsound can flow into
constraint synthesis), and post-processed for breaking power:
row-interchangeability matrices whose full subgroup can be broken
completely, an atom order that matches the generators, and the levels
that give binary clauses, read off the validated generators without any
further graph search or group computation.  Each level is a base atom v
with the generators that move nothing ranked below v; the pipeline pairs
v with the rest of its orbit under them.

The gate compares the keys of the rules a permutation touches with the
keys of their images, both from ``Rule.key``; row detection asks it at
most once per distinct swap within a call, and not about swaps of rows
an earlier seed grew.
"""

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .encoding import ColoredGraph
from .smodels import GroundProgram


class AtomPermutation(NamedTuple("AtomPermutation", [("moved", dict[int, int])])):
    """A permutation of atoms, stored by its non-fixed points only."""

    def __new__(cls, moved):
        clean = {a: b for a, b in moved.items() if a != b}
        if set(clean) != set(clean.values()):
            raise ValueError("not a bijection on its support")
        return super().__new__(cls, clean)

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
            if start not in seen:
                cycle = self.cycle_of(start)
                seen.update(cycle)
                out.append(cycle)
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
        return frozenset(map(self.moved.get, interp, interp))

    def key(self):
        return tuple(sorted(self.moved.items()))

    def __hash__(self):
        return hash(self.key())


def restrict_to_atoms(graph: ColoredGraph, node_perm) -> AtomPermutation:
    """Atom permutation induced by a graph automorphism.

    Atom nodes only ever map to atom nodes (color 1 is theirs alone), so
    the restriction is well defined.  Only the atoms the program's rules
    mention have nodes, so the reserved false atom and every atom that
    touches no rule can never move.
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

    Only the rules touching ``perm.support`` are compared, found through
    the program view's ``occurrences``: every other rule is its own image,
    so the verdict is the one for the whole program.  The view's ``keys``
    and the image keys, ``key(perm.moved)``, both come from ``Rule.key``.
    """
    sem = program.view
    moved = perm.moved
    if sem.false_atom in moved:
        return False
    if any(a < 1 or a > sem.max_atom for a in moved):
        return False
    touched = {i for a in moved for i in sem.occurrences.get(a, ())}
    keys, rules = sem.keys, sem.rules
    return (Counter(keys[i] for i in touched)
            == Counter(rules[i].key(moved) for i in touched))


class RowMatrix(NamedTuple("RowMatrix", [("rows", tuple[tuple[int, ...], ...])])):
    """Equal-length disjoint atom tuples whose rows may be swapped freely.

    Columns are aligned: exchanging two whole rows, position by position,
    is a syntactic symmetry, so the full row-permutation subgroup is
    available for complete breaking.
    """

    def __new__(cls, rows):
        if len({len(r) for r in rows}) > 1:
            raise ValueError("rows must share one length")
        flat = [a for r in rows for a in r]
        if len(set(flat)) != len(flat):
            raise ValueError("rows must be pairwise disjoint")
        return super().__new__(cls, rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

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

    Seeds often grow the same rows, so a growth query whose two rows were
    both grown by one earlier seed is answered without the gate: that
    seed's rows are pairwise disjoint, and any two of them are
    interchangeable, since each swap of two of its consecutive rows is the
    seed itself or was admitted, and the other swaps are products of
    these.  The gate is exact, so it would give the same answer.  A new
    matrix's adjacent swaps still go to the gate, which sees each distinct
    swap once per call; the verdicts are dropped on return.
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

    grown = {}  # row -> the first seed whose rows hold it
    candidates = []
    seen_matrices = set()
    for number, seed in enumerate(gens):
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
                if not used.isdisjoint(image):
                    continue
                known = grown.get(image)
                if ((known is not None and known == grown.get(rows[-1]))
                        or is_symmetry(AtomPermutation.from_cycles(*zip(rows[-1], image)))):
                    rows.append(image)
                    used.update(image)
        for row in rows:
            grown.setdefault(row, number)
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


class AtomOrder(NamedTuple("AtomOrder", [("sequence", tuple[int, ...])])):
    """Order on the atoms that breaking ranks, those some matrix or
    generator moves, as the sequence of atoms by rank."""

    @cached_property
    def rank(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.sequence)}

    def sort_atoms(self, atoms) -> list[int]:
        return sorted(atoms, key=self.rank.__getitem__)


def choose_order(gens, rows) -> AtomOrder:
    """Atom order matched to the detected symmetries.

    Matrix atoms come first in row-major layout, then the remaining
    support of each generator cycle by cycle (generators by ascending
    support size, then smallest support atom).  Atoms that nothing moves
    are left out, as no breaking rule ranks them.  The name is kept for
    ``perfbench/tracer.py``, which looks the function up by it.
    """
    gens = sorted(gens, key=lambda g: (len(g.support), min(g.support, default=0)))
    # a dict keeps each atom's first place
    return AtomOrder(tuple(dict.fromkeys(
        [a for matrix in rows for row in matrix.rows for a in row]
        + [a for g in gens for cycle in g.cycles() for a in cycle])))


def stabilizer_binary_symmetries(gens, order: AtomOrder, levels: int = 5
                                 ) -> list[tuple[int, list[AtomPermutation]]]:
    """The first ``levels`` binary levels of the generators, in ``order``.

    Walking the moved atoms in ``order``, the level of an atom v is v with
    S, the generators that move no atom ranked below v, in generator
    order; a level is emitted when some member of S moves v, which is
    when v is the lowest-ranked atom some generator moves.  Binary clauses
    pair v with the other atoms of its orbit under S.

    For validated generators the pairs are sound: each other atom of the
    orbit is v's image under a product of members of S, a symmetry that
    fixes every atom ranked below v.  With the moved atoms in ``order`` as
    the base, S at the i-th base atom generates a subgroup of the
    pointwise stabilizer of the earlier base atoms, so each orbit lies
    inside the stabilizer chain's basic orbit, and the two are equal when
    these S form a strong generating set for the base (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).  No group is computed.
    The name is kept for ``perfbench/tracer.py``, which looks the function
    up by it.
    """
    rank = order.rank
    gens = [g for g in gens if g.moved]
    lowest = [min(map(rank.__getitem__, g.support)) for g in gens]
    return [(order.sequence[r], [g for g, low in zip(gens, lowest) if low >= r])
            for r in sorted(set(lowest))[:max(levels, 0)]]
