"""End-to-end behavior of the break pipeline."""

import random
import sys
from dataclasses import replace

from symbreak import (BasicRule, BreakConfig, GroundProgram, answer_sets,
                      break_program, check_soundness, parse_program, validate,
                      write_program)
from programs import (free_choice, p1, p2, p3, p4, p5, pigeonhole,
                      random_program)


def test_break_p1_appends_single_constraint():
    result = break_program(p1())
    assert len(result.detection.generators) == 1
    assert len(result.program.rules) - len(p1().rules) == 1
    assert result.program.rules[len(p1().rules):] == (BasicRule(3, (1,), (2,)),)
    assert result.program.compute_minus[len(p1().compute_minus):] == (3,)
    assert result.program.compute_minus == (3,)
    projected = {frozenset(a for a in s if a <= 2)
                 for s in answer_sets(result.program)}
    assert projected == {frozenset(), frozenset({2}), frozenset({1, 2})}


def test_break_symmetry_free_program_is_identity():
    p = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2)),
                      symbols={1: "a", 2: "b"})
    result = break_program(p)
    assert result.program == p
    assert (len(result.detection.generators), len(result.program.rules) - len(p.rules),
            result.program.max_atom - p.max_atom) == (0, 0, 0)


def test_break_reuses_existing_false_atom():
    result = break_program(p3())
    assert result.program.compute_minus[len(p3().compute_minus):] == ()
    assert result.program.compute_minus == p3().compute_minus
    for rule in result.program.rules[len(p3().rules):]:
        assert rule.heads[0] == 1 or rule.heads[0] > p3().max_atom


def test_break_is_sound_on_the_example_programs():
    for program in (p1(), p2(), p3(), p4(), p5()):
        result = break_program(program)
        verdict = check_soundness(program, result.detection.generators,
                                  result.program)
        assert verdict.ok, program
        projected = {frozenset(a for a in s if a <= program.max_atom)
                     for s in answer_sets(result.program)}
        assert projected <= set(answer_sets(program))


def test_break_pigeonhole_unsat_preserved():
    php = pigeonhole(4, 3)
    result = break_program(php)
    assert len(result.rows) == 1
    assert answer_sets(php) == []
    assert answer_sets(result.program) == []


def test_appended_rules_are_constraints_or_fresh_definitions():
    php = pigeonhole(4, 3)
    result = break_program(php)
    head = php.false_atom
    for rule in result.program.rules[len(php.rules):]:
        assert rule.heads[0] == head or rule.heads[0] > php.max_atom


def test_every_aux_atom_is_defined():
    php = pigeonhole(4, 3)
    result = break_program(php)
    heads = {r.heads[0] for r in result.program.rules[len(php.rules):]}
    for aux in range(php.max_atom + 1, result.program.max_atom + 1):
        assert aux in heads


def test_aux_budget_respected():
    for limit in (0, 3, 50):
        config = BreakConfig(aux_limit=limit)
        for program, unsat in ((p1(), False), (pigeonhole(3, 2), True),
                               (pigeonhole(4, 3), True)):
            result = break_program(program, config)
            assert all(n <= limit for n in result.per_symmetry_aux)
            assert check_soundness(program, result.detection.generators,
                                   result.program).ok, (limit, program)
            if unsat:
                assert answer_sets(result.program) == [], (limit, program)


def test_row_generators_not_broken_twice():
    php = pigeonhole(4, 3)
    default = break_program(php)
    no_rows = break_program(php, BreakConfig(row_detection=False))
    assert len(default.rows) == 1 and len(no_rows.rows) == 0
    # with the matrix consumed, fewer per-generator fragments are needed
    assert len(default.per_symmetry_aux) \
        < len(no_rows.detection.generators) + len(default.rows) * 3


def test_toggles_produce_valid_sound_output():
    php = pigeonhole(3, 2)
    for config in (BreakConfig(row_detection=False),
                   BreakConfig(stabilizer_levels=0),
                   BreakConfig(row_detection=False, stabilizer_levels=0)):
        result = break_program(php, config)
        assert validate(result.program) == []
        assert answer_sets(result.program) == []


def test_augmented_program_round_trips():
    for program in (p1(), p3(), pigeonhole(3, 2)):
        result = break_program(program)
        assert validate(result.program) == []
        assert parse_program(write_program(result.program)) == result.program


def test_one_automorphism_search_per_run(monkeypatch):
    from symbreak import automorphism, encoding, pipeline, symmetry
    searches, fixes = [], []
    real_search, real_fix = pipeline.find_generators, encoding.fix_nodes
    monkeypatch.setattr(pipeline, "find_generators",
                        lambda *args: searches.append(args) or real_search(*args))
    for module in (automorphism, encoding, pipeline, symmetry):
        if getattr(module, "fix_nodes", None) is real_fix:
            monkeypatch.setattr(module, "fix_nodes",
                                lambda *args: fixes.append(args) or real_fix(*args))
    for program in (pigeonhole(4, 3), free_choice(range(1, 7))):
        searches.clear()
        result = break_program(program)
        assert result.pairs
        assert len(searches) == 1
    assert fixes == []


def test_semantic_view_at_most_twice_per_run(monkeypatch):
    """The encoding builds one view and the gate index one more, however
    many permutations the gate checks."""
    from symbreak import smodels
    calls = []
    real = smodels.semantic_view
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symbreak" and getattr(module, "semantic_view", None) is real:
            monkeypatch.setattr(module, "semantic_view",
                                lambda *args: calls.append(args) or real(*args))
    for program in (pigeonhole(6, 5), free_choice(range(1, 17))):
        calls.clear()
        result = break_program(program)
        assert result.rows and result.pairs
        assert len(calls) <= 2


def test_false_name_on_any_atom_breaks_soundly():
    """Naming a random atom ``_false``, wherever the program uses it."""
    rng = random.Random(20261018)
    rejected = 0
    for i in range(80):
        program = random_program(rng)
        atom = rng.randint(1, program.max_atom)
        symbols = {a: name for a, name in program.symbols.items() if a != atom}
        program = replace(program, symbols={**symbols, atom: "_false"})
        rejected += program.false_atom != atom
        result = break_program(program)
        verdict = check_soundness(program, result.detection.generators,
                                  result.program, budget=16)
        assert verdict.ok, (i, program)
    assert rejected
