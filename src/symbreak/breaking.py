"""Generation of stable-model-safe symmetry breaking rules.

A lex-leader fragment for a symmetry keeps exactly the interpretations
that are lexicographically no greater than their image, relative to a
chosen atom order with false below true.  Under stable semantics the
equality-prefix chain must be made of defined atoms (free auxiliaries do
not exist), so each chain atom gets its pair of defining rules and every
answer set of the input extends uniquely.

Positions that close a cycle of the permutation are skipped: once the
prefix chain has forced every other member of the cycle equal to its
image, the closing position is equal by transitivity, so its constraint
could never fire.  The chain is only built as far as the last emitted
constraint needs it, which keeps an involution's fragment at half its
naive size (a transposition becomes one bare constraint).

Each builder returns its fragment as a tuple of rules.  Every constraint
is headed by the program view's false atom, which ``FreshAtoms`` carries
as ``head``; every other appended rule defines an aux atom.  ``assemble``
reads the aux atoms off those heads, and declares the head in B- when the
input reserved none and a rule was appended.
"""

from itertools import chain

from .smodels import CHOICE, DISJUNCTIVE, BasicRule, GroundProgram, Rule, validate
from .symmetry import AtomOrder, AtomPermutation, RowMatrix


class FreshAtoms:
    """Allocator of atom indices above the input program; ``head`` is the
    view's false atom, and aux atoms follow it when it is fresh."""

    def __init__(self, program: GroundProgram):
        self.first = program.max_atom + 1
        self.head = program.view.false_atom
        self._next = max(self.first, self.head + 1)

    def fresh(self) -> int:
        atom = self._next
        self._next += 1
        return atom

    @property
    def count(self) -> int:
        return self._next - self.first


def lex_leader_rules(perm: AtomPermutation, order: AtomOrder, aux_limit: int,
                     alloc: FreshAtoms) -> tuple[Rule, ...]:
    """Lex-leader fragment for one symmetry.

    Support atoms are laid out in ``order`` and truncated so at most
    ``aux_limit`` chain atoms are created; a negative limit reads as 0.
    Position i contributes the constraint ``<- e_{i-1}, v_i, not perm(v_i)``
    unless its cycle is already closed by the prefix; chain atoms carry
    the two defining rules ``e_i <- e_{i-1}, v_i, perm(v_i)`` and
    ``e_i <- e_{i-1}, not v_i, not perm(v_i)``.
    """
    support = order.sort_atoms(perm.moved)
    if not support:
        return ()
    points = support[:max(aux_limit, 0) + 1]
    prefix = set()
    emitted = []
    for i, v in enumerate(points):
        mates = set(perm.cycle_of(v)) - {v}
        if not mates <= prefix:
            emitted.append(i)
        prefix.add(v)
    last = emitted[-1]
    emit_at = set(emitted)

    rules = []
    prev = ()  # the chain atom before position i, if any
    for i, v in enumerate(points[:last + 1]):
        w = perm.image_of(v)
        if i in emit_at:
            rules.append(BasicRule(alloc.head, (*prev, v), (w,)))
        if i < last:
            e = alloc.fresh()
            rules.append(BasicRule(e, (*prev, v, w), ()))
            rules.append(BasicRule(e, prev, (v, w)))
            prev = (e,)
    return tuple(rules)


def break_rows(matrix: RowMatrix, order: AtomOrder, aux_limit: int,
               alloc: FreshAtoms) -> list[tuple[Rule, ...]]:
    """Complete breaking of a row-interchangeability matrix.

    One lex-leader fragment per adjacent-row swap; with the matrix atoms
    laid out row-major in ``order`` each fragment reduces to the textbook
    ordering constraint between consecutive rows, and together they keep
    exactly one representative per multiset of row valuations.
    """
    return [lex_leader_rules(matrix.adjacent_swap(i), order, aux_limit, alloc)
            for i in range(matrix.n_rows - 1)]


def binary_rules(pairs, alloc: FreshAtoms) -> tuple[Rule, ...]:
    """One constraint ``<- v, not w`` per (v, w) pair; `assemble` drops
    repeats."""
    return tuple(BasicRule(alloc.head, (v,), (w,)) for v, w in pairs)


def assemble(program: GroundProgram, fragments, alloc: FreshAtoms) -> GroundProgram:
    """Append the rules of each fragment, a tuple of rules, to the program.

    Rules with the single head ``alloc.head`` are constraints, unless they
    are choice or disjunctive rules, which could make it true.  The heads
    of all other rules, with a fresh ``alloc.head``, must be exactly the
    allocator's range above the input's max atom, and no appended rule may
    use an atom past that range.  Duplicate constraints across fragments
    collapse to one occurrence.  With nothing to append the input comes
    back unchanged; otherwise a fresh head is declared in B- so that
    downstream solvers treat it as underivable.
    """
    if (alloc.first, alloc.head) != (program.max_atom + 1, program.view.false_atom):
        raise ValueError("allocator was made for another program")
    if program.problems:
        raise ValueError(f"input program is invalid: {list(program.problems)}")
    appended = []
    aux = set()
    seen_constraints = set()
    for frag in fragments:
        for r in frag:
            if r.heads == (alloc.head,) and r.kind not in (CHOICE, DISJUNCTIVE):
                key = r.key()
                if key in seen_constraints:
                    continue
                seen_constraints.add(key)
            else:
                aux.update(r.heads)
            appended.append(r)
    fresh_head = program.false_atom is None
    if fresh_head:
        aux.add(alloc.head)
    end = alloc.first + alloc.count
    if aux != set(range(alloc.first, end)):
        raise ValueError("aux atom indices collide or leave gaps")
    # every head is now alloc.head or an aux atom, so only bodies can reach past
    top = max(chain.from_iterable(r.pos + r.neg for r in appended), default=0)
    if top >= end:
        raise ValueError(f"appended atom {top} lies past the aux atoms")
    if not appended:
        return program

    compute_minus = program.compute_minus
    if fresh_head:
        compute_minus = compute_minus + (alloc.head,)
    out = program.extended(appended, compute_minus)
    # the input's rules keep the input's cached verdict: a rule's validity
    # does not depend on the rest of the program
    problems = validate(out, len(program.rules))
    if problems:
        raise ValueError(f"assembled program is invalid: {problems}")
    return out
