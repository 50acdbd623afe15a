"""Lex-leader fragments, row breaking, binary rules, assembly."""

import pytest

from symbreak import (BasicRule, ChoiceRule, GroundProgram, Rule, answer_sets,
                      assemble, binary_rules, break_rows, lex_leader_rules)
from symbreak.breaking import FreshAtoms
from symbreak.smodels import BASIC, CARDINALITY
from symbreak.symmetry import AtomOrder, AtomPermutation, RowMatrix
from programs import free_choice, p1, p3


def natural_order(n):
    return AtomOrder(tuple(range(1, n + 1)))


def aux_atoms(frag, alloc) -> tuple[int, ...]:
    """The atoms a fragment defines: the heads of its rules other than the
    constraint head, in order of first definition."""
    return tuple(dict.fromkeys(h for r in frag for h in r.heads if h != alloc.head))


def lex_leq(interp, perm, order):
    """Reference filter: compare I with its position-wise images."""
    for v in order.sort_atoms(perm.moved):
        here, there = v in interp, perm.image_of(v) in interp
        if here != there:
            return (not here) and there
    return True


def augmented_with(program, perm, order, aux_limit=50):
    alloc = FreshAtoms(program)
    frag = lex_leader_rules(perm, order, aux_limit, alloc)
    return assemble(program, [frag], alloc)[0], frag


def test_transposition_is_a_single_constraint():
    alloc = FreshAtoms(p3())  # atom 1 is the reserved head
    frag = lex_leader_rules(AtomPermutation({2: 3, 3: 2}), AtomOrder((2, 3)),
                            50, alloc)
    assert frag == (BasicRule(1, (2,), (3,)),)
    assert aux_atoms(frag, alloc) == ()
    assert alloc.count == 0


def test_identity_gives_empty_fragment():
    frag = lex_leader_rules(AtomPermutation({}), natural_order(2), 50,
                            FreshAtoms(p1()))
    assert frag == ()


def test_three_cycle_fragment_structure():
    perm = AtomPermutation.from_cycles((1, 2, 3))
    alloc = FreshAtoms(free_choice([1, 2, 3]))  # head 4, aux atoms from 5
    frag = lex_leader_rules(perm, natural_order(3), 50, alloc)
    assert frag == (
        BasicRule(4, (1,), (2,)),       # <- a, not b
        BasicRule(5, (1, 2), ()),       # e1 <- a, b
        BasicRule(5, (), (1, 2)),       # e1 <- not a, not b
        BasicRule(4, (5, 2), (3,)),     # <- e1, b, not c
    )
    assert aux_atoms(frag, alloc) == (5,)


def test_three_cycle_matches_brute_force_lex_filter():
    perm = AtomPermutation.from_cycles((1, 2, 3))
    order = natural_order(3)
    base = free_choice([1, 2, 3])
    augmented, _ = augmented_with(base, perm, order)
    projected = {frozenset(a for a in s if a <= 3)
                 for s in answer_sets(augmented)}
    expected = {s for s in answer_sets(base) if lex_leq(s, perm, order)}
    assert projected == expected
    assert len(projected) == 5


def test_p1_lex_exactness():
    augmented, _ = augmented_with(p1(), AtomPermutation({1: 2, 2: 1}),
                                  natural_order(2))
    projected = {frozenset(a for a in s if a <= 2)
                 for s in answer_sets(augmented)}
    assert projected == {frozenset(), frozenset({2}), frozenset({1, 2})}


def test_lex_exactness_on_products_of_transpositions():
    perm = AtomPermutation.from_cycles((1, 3), (2, 4))
    order = natural_order(4)
    base = free_choice([1, 2, 3, 4])
    augmented, _ = augmented_with(base, perm, order)
    projected = {frozenset(a for a in s if a <= 4)
                 for s in answer_sets(augmented)}
    expected = {s for s in answer_sets(base) if lex_leq(s, perm, order)}
    assert projected == expected


def test_aux_budget_truncation():
    perm = AtomPermutation.from_cycles(tuple(range(1, 11)))
    base = free_choice(range(1, 11))
    for limit in (0, 3, 50):
        alloc = FreshAtoms(base)
        frag = lex_leader_rules(perm, natural_order(10), limit, alloc)
        assert len(aux_atoms(frag, alloc)) <= limit
    zero = lex_leader_rules(perm, natural_order(10), 0, FreshAtoms(base))
    assert zero == (BasicRule(11, (1,), (2,)),)


def test_truncation_is_still_sound():
    perm = AtomPermutation.from_cycles((1, 2, 3, 4))
    order = natural_order(4)
    base = free_choice([1, 2, 3, 4])
    full, _ = augmented_with(base, perm, order)
    cut, _ = augmented_with(base, perm, order, aux_limit=1)
    full_sets = {frozenset(a for a in s if a <= 4) for s in answer_sets(full)}
    cut_sets = {frozenset(a for a in s if a <= 4) for s in answer_sets(cut)}
    assert full_sets <= cut_sets  # weaker breaking, never unsound


def test_break_rows_3x1_counts():
    matrix = RowMatrix(((1,), (2,), (3,)))
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(base)
    frags = break_rows(matrix, natural_order(3), 50, alloc)
    assert len(frags) == 2
    augmented, _ = assemble(base, frags, alloc)
    assert len(answer_sets(base)) == 8
    assert len(answer_sets(augmented)) == 4


def test_break_rows_3x2_counts():
    matrix = RowMatrix(((1, 2), (3, 4), (5, 6)))
    base = free_choice(range(1, 7))
    alloc = FreshAtoms(base)
    frags = break_rows(matrix, natural_order(6), 50, alloc)
    augmented, _ = assemble(base, frags, alloc)
    assert len(answer_sets(base)) == 64
    assert len(answer_sets(augmented)) == 20


def test_break_rows_two_rows_single_fragment():
    matrix = RowMatrix(((1,), (2,)))
    frags = break_rows(matrix, natural_order(2), 50, FreshAtoms(p1()))
    assert len(frags) == 1
    assert frags[0] == (BasicRule(3, (1,), (2,)),)


def test_binary_rules():
    alloc = FreshAtoms(free_choice([1, 2, 3]))  # head 4
    frag = binary_rules([(1, 2), (2, 3)], alloc)
    assert frag == (BasicRule(4, (1,), (2,)), BasicRule(4, (2,), (3,)))
    assert aux_atoms(frag, alloc) == ()
    assert binary_rules([], alloc) == ()


def test_assemble_no_fragments_is_identity():
    assert assemble(p1(), [], FreshAtoms(p1())) == (p1(), 0)


def test_assemble_updates_max_atom_and_b_minus():
    base = free_choice([1, 2])
    alloc = FreshAtoms(base)
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                            natural_order(2), 50, alloc)
    out, _ = assemble(base, [frag], alloc)
    assert out.max_atom == 3
    assert out.compute_minus == (3,)
    assert out.symbols == {}


def test_assemble_dedupes_constraints_across_fragments():
    from symbreak import binary_rules as make_binary
    base = free_choice([1, 2])
    alloc = FreshAtoms(base)
    lex = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                           natural_order(2), 50, alloc)
    binary = make_binary([(1, 2)], alloc)
    out, _ = assemble(base, [lex, binary], alloc)
    assert len(out.rules) == len(base.rules) + 1
    # and within one fragment, keeping the first occurrence
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(base)
    out, _ = assemble(base, [make_binary([(1, 2), (1, 2), (2, 3)], alloc)], alloc)
    assert out.rules[len(base.rules):] == (BasicRule(alloc.head, (1,), (2,)),
                                           BasicRule(alloc.head, (2,), (3,)))


@pytest.mark.parametrize("fragments, kept", [
    # a repeat across fragments collapses to its first occurrence
    ([[(1, 2)], [(1, 2), (2, 3)]], [(1, 2), (2, 3)]),
    # an edge backward in atom order is reduced like a forward one
    ([[(3, 1), (1, 2), (3, 2)]], [(3, 1), (1, 2)]),
    # a 2-cycle keeps an edge each way, and the edges out of it stay too
    ([[(1, 2), (2, 1)], [(1, 3), (2, 3)]], [(1, 2), (2, 1), (1, 3), (2, 3)]),
    # of a chain and its shortcut, only the shortcut goes
    ([[(1, 2), (2, 3)], [(1, 3)]], [(1, 2), (2, 3)]),
], ids=["duplicate", "backward", "two-cycle", "chain-shortcut"])
def test_assemble_appends_the_transitive_reduction(fragments, kept):
    """Binary constraints ``<- v, not w`` that the other appended ones
    imply are dropped and counted; the answer sets are those of the input
    that satisfy every constraint handed in."""
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(base)  # head 4
    out, implied = assemble(base, [binary_rules(f, alloc) for f in fragments], alloc)
    assert out.rules[len(base.rules):] == binary_rules(kept, alloc)
    edges = {e for f in fragments for e in f}
    assert implied == len(edges) - len(kept)
    expected = {s for s in answer_sets(base)
                if all(v not in s or w in s for v, w in edges)}
    assert set(answer_sets(out)) == expected


def test_assemble_detects_allocator_misuse():
    """A fragment's chain atom from another allocator is not in the range
    the assembling one handed out, and an allocator carries its own
    program's head."""
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(base)
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2, 3)),
                            natural_order(3), 50, alloc)
    assert aux_atoms(frag, alloc) == (5,)
    with pytest.raises(ValueError, match="collide or leave gaps"):
        assemble(base, [frag], FreshAtoms(base))
    # both reserve a head and share max atom 4, which is a choice in p3_4
    p3_4 = GroundProgram(p3().rules + (ChoiceRule((4,)),), p3().symbols)
    other = GroundProgram(rules=(BasicRule(4, (2, 3)),), symbols={4: "_false"})
    alloc = FreshAtoms(other)
    frag = binary_rules([(2, 3)], alloc)
    with pytest.raises(ValueError, match="made for another program"):
        assemble(p3_4, [frag], alloc)


def test_assemble_round_trips_through_the_wire_format():
    from symbreak import parse_program, validate, write_program
    base = p1()
    alloc = FreshAtoms(base)
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                            natural_order(2), 50, alloc)
    out, _ = assemble(base, [frag], alloc)
    assert validate(out) == []
    assert parse_program(write_program(out)) == out


@pytest.mark.parametrize("rule, message", [
    (BasicRule(3, (0,), (1,)), "assembled program is invalid"),  # atom 0
    (BasicRule(3, (1,), (4,)), "appended atom 4 lies past the aux atoms"),
    (Rule(BASIC, (3,), (1,), (2,), None, (1, 1)),  # weights on a basic rule
     "assembled program is invalid"),
    (Rule(CARDINALITY, (3,), (1, 2), ()),          # cardinality without bound
     "assembled program is invalid"),
], ids=["atom-0", "past-max-atom", "basic-weights", "unbounded-cardinality"])
def test_assemble_rejects_corrupt_fragment(rule, message):
    """The checks cover appended rules, though the output check reuses the
    input's cached verdict for the input's own rules; an atom past the
    allocated range, 3 here, is refused before it."""
    base = free_choice([1, 2])
    alloc = FreshAtoms(base)
    with pytest.raises(ValueError, match=message):
        assemble(base, [(rule,)], alloc)
    valid = BasicRule(3, (1,), (2,))
    assert assemble(base, [(valid,)], alloc)[0].rules[-1] == valid


def test_assemble_rejects_a_corrupt_rule_that_others_imply():
    """A basic rule ``<- 1, not 3`` with weights is no binary constraint,
    so the chain 1 -> 2 -> 3 does not drop it before the check."""
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(base)  # head 4
    corrupt = Rule(BASIC, (4,), (1,), (3,), None, (1, 1))
    with pytest.raises(ValueError, match="assembled program is invalid"):
        assemble(base, [binary_rules([(1, 2), (2, 3)], alloc), (corrupt,)], alloc)


def test_assemble_refuses_a_rule_that_defines_an_input_atom():
    """Aux atoms are read off the appended heads, so a fact for ``p``
    would cut p3's answer sets {}, {p}, {q} down to {p}; a choice on its
    reserved head 1 is no constraint, and would let 1 be true."""
    base = p3()
    alloc = FreshAtoms(base)
    for rule in (BasicRule(2), ChoiceRule((2,)), ChoiceRule((1,))):
        with pytest.raises(ValueError, match="collide or leave gaps"):
            assemble(base, [(rule,)], alloc)


def test_assemble_rejects_an_invalid_input():
    bad = GroundProgram(rules=(BasicRule(2, (0,), ()),))
    with pytest.raises(ValueError, match="input program is invalid"):
        assemble(bad, [], FreshAtoms(bad))
