"""Lex-leader fragments, row breaking, binary rules, assembly."""

import pytest

from symbreak import (BasicRule, GroundProgram, Rule, answer_sets, assemble,
                      binary_rules, break_rows, lex_leader_rules)
from symbreak.breaking import Fragment, FreshAtoms
from symbreak.smodels import BASIC, CARDINALITY
from symbreak.symmetry import AtomOrder, AtomPermutation, RowMatrix
from programs import free_choice, p1


def natural_order(n):
    return AtomOrder(tuple(range(1, n + 1)))


def lex_leq(interp, perm, order):
    """Reference filter: compare I with its position-wise images."""
    for v in order.sort_atoms(perm.support):
        here, there = v in interp, perm.image_of(v) in interp
        if here != there:
            return (not here) and there
    return True


def augmented_with(program, perm, order, aux_limit=50):
    alloc = FreshAtoms(program.max_atom + 1)
    new_false = program.false_atom
    if new_false is None:
        new_false = alloc.fresh()
        head = new_false
    else:
        head = new_false
        new_false = None
    frag = lex_leader_rules(perm, order, aux_limit, alloc, head)
    return assemble(program, [frag], alloc, new_false), frag


def test_transposition_is_a_single_constraint():
    alloc = FreshAtoms(3)
    frag = lex_leader_rules(AtomPermutation({1: 2, 2: 1}), natural_order(2),
                            50, alloc, 9)
    assert frag.rules == (BasicRule(9, (1,), (2,)),)
    assert frag.aux_atoms == ()
    assert alloc.count == 0


def test_identity_gives_empty_fragment():
    frag = lex_leader_rules(AtomPermutation({}), natural_order(2), 50,
                            FreshAtoms(3), 9)
    assert frag.rules == ()


def test_three_cycle_fragment_structure():
    perm = AtomPermutation.from_cycles((1, 2, 3))
    alloc = FreshAtoms(5)
    frag = lex_leader_rules(perm, natural_order(3), 50, alloc, 4)
    assert frag.rules == (
        BasicRule(4, (1,), (2,)),       # <- a, not b
        BasicRule(5, (1, 2), ()),       # e1 <- a, b
        BasicRule(5, (), (1, 2)),       # e1 <- not a, not b
        BasicRule(4, (5, 2), (3,)),     # <- e1, b, not c
    )
    assert frag.aux_atoms == (5,)


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
    for limit in (0, 3, 50):
        alloc = FreshAtoms(11)
        frag = lex_leader_rules(perm, natural_order(10), limit, alloc, 99)
        assert len(frag.aux_atoms) <= limit
    zero = lex_leader_rules(perm, natural_order(10), 0, FreshAtoms(11), 99)
    assert zero.rules == (BasicRule(99, (1,), (2,)),)


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
    alloc = FreshAtoms(4)
    head = alloc.fresh()
    frags = break_rows(matrix, natural_order(3), 50, alloc, head)
    assert len(frags) == 2
    augmented = assemble(base, frags, alloc, head)
    assert len(answer_sets(base)) == 8
    assert len(answer_sets(augmented)) == 4


def test_break_rows_3x2_counts():
    matrix = RowMatrix(((1, 2), (3, 4), (5, 6)))
    base = free_choice(range(1, 7))
    alloc = FreshAtoms(7)
    head = alloc.fresh()
    frags = break_rows(matrix, natural_order(6), 50, alloc, head)
    augmented = assemble(base, frags, alloc, head)
    assert len(answer_sets(base)) == 64
    assert len(answer_sets(augmented)) == 20


def test_break_rows_two_rows_single_fragment():
    matrix = RowMatrix(((1,), (2,)))
    frags = break_rows(matrix, natural_order(2), 50, FreshAtoms(3), 9)
    assert len(frags) == 1
    assert frags[0].rules == (BasicRule(9, (1,), (2,)),)


def test_binary_rules():
    frag = binary_rules([(1, 2), (2, 3)], 9)
    assert frag.rules == (BasicRule(9, (1,), (2,)), BasicRule(9, (2,), (3,)))
    assert frag.aux_atoms == ()
    assert binary_rules([], 9).rules == ()


def test_assemble_no_fragments_is_identity():
    out = assemble(p1(), [], FreshAtoms(3), None)
    assert out == p1()


def test_assemble_updates_max_atom_and_b_minus():
    base = free_choice([1, 2])
    alloc = FreshAtoms(3)
    head = alloc.fresh()
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                            natural_order(2), 50, alloc, head)
    out = assemble(base, [frag], alloc, head)
    assert out.max_atom == 3
    assert out.compute_minus == (3,)
    assert out.symbols == {}


def test_assemble_dedupes_constraints_across_fragments():
    from symbreak import binary_rules as make_binary
    base = free_choice([1, 2])
    alloc = FreshAtoms(3)
    head = alloc.fresh()
    lex = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                           natural_order(2), 50, alloc, head)
    binary = make_binary([(1, 2)], head)
    out = assemble(base, [lex, binary], alloc, head)
    assert len(out.rules) == len(base.rules) + 1
    # and within one fragment, keeping the first occurrence
    base = free_choice([1, 2, 3])
    alloc = FreshAtoms(4)
    head = alloc.fresh()
    out = assemble(base, [make_binary([(1, 2), (1, 2), (2, 3)], head)], alloc, head)
    assert out.rules[len(base.rules):] == (BasicRule(head, (1,), (2,)),
                                           BasicRule(head, (2,), (3,)))


def test_assemble_detects_allocator_misuse():
    base = free_choice([1, 2])
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                            natural_order(2), 50, FreshAtoms(3), 7)
    with pytest.raises(ValueError):
        assemble(base, [frag], FreshAtoms(3), None)


def test_assemble_round_trips_through_the_wire_format():
    from symbreak import parse_program, validate, write_program
    base = p1()
    alloc = FreshAtoms(3)
    head = alloc.fresh()
    frag = lex_leader_rules(AtomPermutation.from_cycles((1, 2)),
                            natural_order(2), 50, alloc, head)
    out = assemble(base, [frag], alloc, head)
    assert validate(out) == []
    assert parse_program(write_program(out)) == out


@pytest.mark.parametrize("rule", [
    BasicRule(3, (0,), (1,)),                     # atom 0
    BasicRule(3, (1,), (4,)),                     # past the new max atom 3
    Rule(BASIC, (3,), (1,), (2,), None, (1, 1)),  # weights on a basic rule
    Rule(CARDINALITY, (3,), (1, 2), ()),          # cardinality without bound
], ids=["atom-0", "past-max-atom", "basic-weights", "unbounded-cardinality"])
def test_assemble_rejects_corrupt_fragment(rule):
    """The output check covers appended rules, though it reuses the
    input's cached verdict for the input's own rules."""
    base = free_choice([1, 2])
    alloc = FreshAtoms(3)
    head = alloc.fresh()
    with pytest.raises(ValueError, match="assembled program is invalid"):
        assemble(base, [Fragment((rule,))], alloc, head)
    valid = BasicRule(3, (1,), (2,))
    assert assemble(base, [Fragment((valid,))], alloc, head).rules[-1] == valid


def test_assemble_rejects_an_invalid_input():
    bad = GroundProgram(rules=(BasicRule(2, (9,), ()),), max_atom=5)
    with pytest.raises(ValueError, match="input program is invalid"):
        assemble(bad, [], FreshAtoms(6), None)
