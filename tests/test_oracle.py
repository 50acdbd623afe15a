"""Stable-model oracle: satisfaction, enumeration, soundness checks."""

import random

import pytest

from symbreak import (BasicRule, CardinalityRule, ChoiceRule, DisjunctiveRule,
                      GroundProgram, MinimizeStatement, OracleBudgetError,
                      WeightRule, answer_sets, break_program, check_soundness)
from symbreak.symmetry import AtomPermutation
from graph_oracles import satisfies
from programs import (free_choice, p1, p2, p3, p4, p5, pigeonhole, random_program,
                      reference_answer_sets)


def sets(*collections):
    return [frozenset(c) for c in collections]


def test_satisfies_basic_head_missing():
    assert not satisfies({1, 2}, BasicRule(3, (1, 2)))
    assert satisfies({1, 2, 3}, BasicRule(3, (1, 2)))


def test_satisfies_constraint_with_unsatisfied_body():
    assert satisfies(set(), BasicRule(9, (1, 2)))


def test_satisfies_weight_below_bound():
    rule = WeightRule(head=7, bound=3, pos=(1,), neg=(), weights=(2,))
    assert satisfies({1}, rule)
    above = WeightRule(head=7, bound=2, pos=(1,), neg=(), weights=(2,))
    assert not satisfies({1}, above)


def test_satisfies_cardinality_counts_occurrences():
    rule = CardinalityRule(head=3, bound=2, pos=(1, 1), neg=())
    assert not satisfies({1}, rule)  # duplicate occurrences both count


def test_satisfies_choice_and_minimize_always():
    assert satisfies(set(), ChoiceRule((1,), (2,)))
    assert satisfies({2}, MinimizeStatement((2,), (), (5,)))


def test_answer_sets_facts():
    assert answer_sets(p5()) == sets({1, 2})


def test_answer_sets_free_choices():
    assert answer_sets(p1()) == sets((), {1}, {1, 2}, {2})


def test_answer_sets_p2():
    assert answer_sets(p2()) == sets((), {1}, {1, 2, 3}, {2})


def test_answer_sets_p3_constraint():
    assert answer_sets(p3()) == sets((), {2}, {3})


def test_answer_sets_p4_disjunctive():
    assert answer_sets(p4()) == sets((), {1}, {1, 2}, {2})


def test_answer_sets_even_negative_loop():
    p = GroundProgram(rules=(BasicRule(1, (), (2,)), BasicRule(2, (), (1,))))
    assert answer_sets(p) == sets({1}, {2})


def test_answer_sets_odd_negative_loop():
    assert answer_sets(GroundProgram(rules=(BasicRule(1, (), (1,)),))) == []


def test_answer_sets_positive_loop_unfounded():
    p = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2, (1,))))
    assert answer_sets(p) == sets(())


def test_answer_sets_cardinality_rule():
    # d <- 2 <= #{a, b, not c} over free choices on a, b
    p = GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,)),
                             CardinalityRule(4, 2, (1, 2), (3,))))
    expected = {frozenset(s) | ({4} if len(s) + 1 >= 2 else set())
                for s in [frozenset(), frozenset({1}), frozenset({2}),
                          frozenset({1, 2})]}
    assert set(answer_sets(p)) == expected


def test_answer_sets_weight_rule():
    # h <- 3 <= sum{a=2, b=2} over free a, b
    p = GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,)),
                             WeightRule(3, 3, (1, 2), (), (2, 2))))
    assert set(answer_sets(p)) == {frozenset(), frozenset({1}), frozenset({2}),
                                   frozenset({1, 2, 3})}


def test_answer_sets_compute_blocks_enforced():
    p = GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,))),
                      compute_plus=(1,), compute_minus=(2,))
    assert answer_sets(p) == sets({1})


@pytest.mark.parametrize("constraint", [CardinalityRule(1, 2, (2, 3)),
                                        WeightRule(1, 3, (2, 3), (), (2, 2))],
                         ids=["cardinality", "weight"])
def test_a_bounded_rule_deriving_the_false_atom_ends_the_least_model(constraint):
    """{a; b} with a bounded constraint that both atoms break: the least
    model of the guess {a, b} stops at the false atom the constraint
    derives."""
    p = GroundProgram(rules=(ChoiceRule((2, 3)), constraint), compute_minus=(1,))
    assert answer_sets(p) == sets((), {2}, {3}) == reference_answer_sets(p)


def test_answer_sets_budget():
    big = GroundProgram(rules=tuple(ChoiceRule((a,)) for a in range(1, 25)))
    with pytest.raises(OracleBudgetError):
        answer_sets(big, budget=20)


def test_answer_sets_disjunctive_rule_over_many_choices():
    # only the 12 atoms of the program are guessed: choices add none
    p = GroundProgram(rules=tuple(ChoiceRule((a,)) for a in range(1, 11))
                      + (DisjunctiveRule((11, 12), (1,)),))
    # 2^9 choices without atom 1, and twice 2^9 with it: 11 or 12
    assert len(answer_sets(p)) == 1536


def test_disjunctive_minimality_from_the_least_model_matches_the_reference():
    # the minimality check tries only the subsets that hold the least
    # model of the reduct's single-head rules; here that model fixes all
    # but the disjunctive heads, and in the second program 9 <- 7 derives
    # an atom from one of them
    repro = GroundProgram(rules=tuple(ChoiceRule((a,)) for a in range(1, 11))
                          + (DisjunctiveRule((11, 12), (1,)),))
    derived = GroundProgram(rules=tuple(ChoiceRule((a,)) for a in range(1, 7))
                            + (DisjunctiveRule((7, 8), (1,)), BasicRule(9, (7,)),
                               DisjunctiveRule((8, 9), (2,))))
    for p in (repro, derived):
        assert answer_sets(p) == reference_answer_sets(p), p


def test_answer_sets_zero_weights_over_many_negated_atoms():
    p = GroundProgram(rules=(WeightRule(25, 1, (), tuple(range(1, 25)), (0,) * 24),))
    assert answer_sets(p, budget=20) == [frozenset()]


def test_answer_sets_bounds_outside_the_body_guess_nothing():
    neg = tuple(range(1, 25))
    fact = GroundProgram(rules=(CardinalityRule(25, 0, (), neg),))
    assert answer_sets(fact, budget=20) == sets({25})
    never = GroundProgram(rules=(CardinalityRule(25, 30, (), neg),))
    assert answer_sets(never, budget=20) == [frozenset()]


def test_pigeonhole_sat_and_unsat():
    assert len(answer_sets(pigeonhole(2, 2))) == 2  # the two matchings
    assert answer_sets(pigeonhole(3, 2)) == []
    assert answer_sets(pigeonhole(4, 3)) == []


def test_check_soundness_trivial_and_adversarial():
    swap = AtomPermutation({1: 2, 2: 1})
    assert check_soundness(p1(), [swap], p1()).ok
    killed = GroundProgram(rules=p1().rules + (BasicRule(3, (1,)),
                                               BasicRule(3, (), (1,))),
                           compute_minus=(3,))
    verdict = check_soundness(p1(), [swap], killed)
    assert not verdict.ok
    assert not verdict.surviving
    # one entry per lost orbit, {1} standing for {2}
    assert verdict.missing == (frozenset(), frozenset({1}), frozenset({1, 2}))
    assert not verdict.extra and not verdict.unpreserved


def test_check_soundness_names_generators_that_move_answer_sets():
    # P1's answer sets are the subsets of {1, 2}; moving 1 or 2 to a
    # third atom leaves them, swapping 1 and 2 does not
    swap = AtomPermutation({1: 2, 2: 1})
    p_out, q_out = AtomPermutation({1: 3, 3: 1}), AtomPermutation({2: 4, 4: 2})
    verdict = check_soundness(p1(), [p_out, swap, q_out, swap], p1())
    assert verdict.unpreserved == (p_out, q_out)
    assert not verdict.ok
    assert not verdict.missing and not verdict.extra


def test_check_soundness_names_survivors_that_are_no_answer_sets():
    # dropping the constraint of P3 lets p and q hold together
    unconstrained = GroundProgram(rules=p3().rules[1:], symbols=p3().symbols)
    verdict = check_soundness(p3(), [AtomPermutation({2: 3, 3: 2})], unconstrained)
    assert verdict.extra == (frozenset({2, 3}),)
    assert not verdict.ok
    assert not verdict.missing and not verdict.unpreserved


def test_check_soundness_applies_each_generator_once_per_answer_set():
    calls = []

    class Counting(AtomPermutation):
        def apply_to_set(self, interp):
            calls.append(interp)
            return super().apply_to_set(interp)

    program = free_choice(range(1, 7))
    result = break_program(program)
    generators = [Counting(g.moved) for g in result.detection.generators]
    verdict = check_soundness(program, generators, result.program)
    assert verdict.ok
    assert (len(verdict.original), len(generators)) == (64, 5)
    assert len(calls) == 64 * 5


def test_oracle_agrees_with_reference_on_random_programs():
    rng = random.Random(4070)
    checked = 0
    for _ in range(260):
        p = random_program(rng)
        assert answer_sets(p, budget=16) == reference_answer_sets(p), p
        checked += 1
    assert checked >= 260


def test_desugaring_self_consistency_on_bounded_bodies():
    # a cardinality body and its hand-expanded basic form agree
    rng = random.Random(99)
    for _ in range(40):
        atoms = [1, 2, 3, 4]
        pos = tuple(rng.sample(atoms, rng.randint(0, 3)))
        neg = tuple(a for a in rng.sample(atoms, rng.randint(0, 2))
                    if a not in pos)
        bound = rng.randint(0, 4)
        sugared = GroundProgram(
            rules=tuple(ChoiceRule((a,)) for a in atoms)
            + (CardinalityRule(5, bound, pos, neg),))
        from itertools import combinations
        lits = [(a, True) for a in pos] + [(b, False) for b in neg]
        expanded = []
        if bound == 0:
            expanded.append(BasicRule(5))
        else:
            for sub in combinations(lits, min(bound, len(lits) + 1)):
                if len(sub) == bound:
                    expanded.append(BasicRule(5,
                                              tuple(a for a, s in sub if s),
                                              tuple(a for a, s in sub if not s)))
        plain = GroundProgram(rules=tuple(ChoiceRule((a,)) for a in atoms)
                              + tuple(expanded))
        assert answer_sets(sugared) == answer_sets(plain)
