"""Cross-cutting randomized properties tying the layers together."""

import random

from symbreak import (CardinalityRule, ChoiceRule, GroundProgram, WeightRule,
                      answer_sets, assemble, break_program, lex_leader_rules,
                      semantic_view, write_program)
from symbreak.breaking import FreshAtoms
from symbreak.symmetry import AtomOrder, AtomPermutation
from graph_oracles import satisfies
from programs import free_choice, pigeonhole, random_program


def random_permutation(rng, atoms):
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    return AtomPermutation(dict(zip(atoms, shuffled)))


def lex_leq(interp, perm, order):
    for v in order.sort_atoms(perm.moved):
        here, there = v in interp, perm.image_of(v) in interp
        if here != there:
            return (not here) and there
    return True


def test_single_symmetry_exactness_random_sweep():
    """An untruncated lex-leader fragment keeps exactly the interpretations
    no greater than their image, for arbitrary cycle shapes and orders."""
    rng = random.Random(606060)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        atoms = list(range(1, n + 1))
        perm = random_permutation(rng, atoms)
        if perm.is_identity:
            continue
        sequence = list(atoms)
        rng.shuffle(sequence)
        order = AtomOrder(tuple(sequence))
        base = free_choice(atoms)
        alloc = FreshAtoms(base)
        frag = lex_leader_rules(perm, order, 50, alloc)
        augmented, _ = assemble(base, [frag], alloc)
        projected = {frozenset(a for a in s if a <= n)
                     for s in answer_sets(augmented)}
        expected = {s for s in answer_sets(base) if lex_leq(s, perm, order)}
        assert projected == expected, (perm, sequence)
        checked += 1
    assert checked >= 100


def test_sound_breaking_of_whole_random_groups():
    """Breaking all generators of a random permutation group leaves at least
    one survivor in every orbit of free-choice interpretations."""
    rng = random.Random(121212)
    for _ in range(60):
        n = rng.randint(2, 6)
        atoms = list(range(1, n + 1))
        gens = [random_permutation(rng, atoms) for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_identity]
        if not gens:
            continue
        base = free_choice(atoms)
        alloc = FreshAtoms(base)
        frags = [lex_leader_rules(g, AtomOrder(tuple(atoms)), 50, alloc)
                 for g in gens]
        augmented, _ = assemble(base, frags, alloc)
        survivors = {frozenset(a for a in s if a <= n)
                     for s in answer_sets(augmented)}
        for interp in answer_sets(base):
            orbit = {interp}
            frontier = [interp]
            while frontier:
                current = frontier.pop()
                for g in gens:
                    image = g.apply_to_set(current)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            assert orbit & survivors, (gens, interp)


def test_duplicate_occurrences_count_in_aggregates():
    # h <- 2 <= #{a, a}: a single true atom reaches the bound twice over
    card = GroundProgram(rules=(ChoiceRule((1,)), CardinalityRule(2, 2, (1, 1))))
    assert set(answer_sets(card)) == {frozenset(), frozenset({1, 2})}
    weight = GroundProgram(rules=(ChoiceRule((1,)),
                                  WeightRule(2, 2, (1, 1), (), (1, 1))))
    assert set(answer_sets(weight)) == {frozenset(), frozenset({1, 2})}


def test_answer_sets_satisfy_native_aggregate_semantics():
    """Post-hoc model check: every answer set satisfies each rule of the
    semantic view, bounds and weights evaluated by ``satisfies``, which
    shares no code with the oracle's reduct."""
    rng = random.Random(343434)
    checked = 0
    for _ in range(120):
        program = random_program(rng)
        sem = semantic_view(program)
        for interp in answer_sets(program, budget=16):
            assert sem.false_atom not in interp
            for rule in sem.rules:
                assert satisfies(interp, rule), (program, interp, rule)
            checked += 1
    assert checked >= 150


def test_break_output_is_deterministic():
    php = pigeonhole(4, 3)
    first = break_program(php)
    second = break_program(php)
    assert write_program(first.program) == write_program(second.program)
    assert first.pairs == second.pairs
    assert [g.key() for g in first.detection.generators] \
        == [g.key() for g in second.detection.generators]
