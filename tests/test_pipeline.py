"""End-to-end behavior of the break pipeline."""

import io
import random
import sys
from dataclasses import replace

from symbreak import (BasicRule, BreakConfig, ChoiceRule, GroundProgram,
                      answer_sets, break_program, check_soundness,
                      detect_symmetries, parse_program, pipeline, validate,
                      write_program)
from symbreak.cli import main
from symbreak.symmetry import AtomPermutation, BinarySymmetry
from graph_oracles import atom_node
from programs import (free_choice, p1, p2, p3, p4, p5, pigeonhole,
                      random_program, record_fragment_aux)


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


def test_aux_budget_respected(monkeypatch):
    aux = record_fragment_aux(monkeypatch)
    for limit in (0, 3, 50):
        config = BreakConfig(aux_limit=limit)
        for program, unsat in ((p1(), False), (pigeonhole(3, 2), True),
                               (pigeonhole(4, 3), True)):
            aux.clear()
            result = break_program(program, config)
            assert all(n <= limit for n in aux)
            assert check_soundness(program, result.detection.generators,
                                   result.program).ok, (limit, program)
            if unsat:
                assert answer_sets(result.program) == [], (limit, program)


def test_row_generators_not_broken_twice(monkeypatch):
    php = pigeonhole(4, 3)
    default_aux = record_fragment_aux(monkeypatch)
    default = break_program(php)
    default_fragments = len(default_aux)
    no_rows = break_program(php, BreakConfig(row_detection=False))
    assert len(default.rows) == 1 and len(no_rows.rows) == 0
    # with the matrix consumed, fewer per-generator fragments are needed
    assert default_fragments \
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


def test_gate_drops_a_search_permutation_that_is_no_symmetry(monkeypatch, capsys):
    """A search that also returns the swap of p and r in P2, which is no
    symmetry (r is derived from p and q), loses it at the gate: the break
    is the honest one and verify names the rejection."""
    honest = break_program(p2())
    real = pipeline.find_generators

    def faulty(graph, *args):
        search = real(graph, *args)
        perm = list(range(graph.n_nodes))
        p, r = atom_node(graph, 1), atom_node(graph, 3)
        perm[p], perm[r], perm[p + 1], perm[r + 1] = r, p, r + 1, p + 1
        return replace(search, generators=search.generators + (tuple(perm),))

    monkeypatch.setattr(pipeline, "find_generators", faulty)
    detection = detect_symmetries(p2())
    assert len(detection.rejected) == 1
    assert detection.generators == honest.detection.generators
    result = break_program(p2())
    assert result.program == honest.program
    assert check_soundness(p2(), result.detection.generators, result.program).ok
    monkeypatch.setattr("sys.stdin", io.StringIO(write_program(p2())))
    assert main(["--mode", "verify"]) == 4
    err = capsys.readouterr().err
    assert "VIOLATION: automorphism (p r) failed the syntactic symmetry check" in err


def test_break_with_a_wrong_group_order_stays_sound(monkeypatch):
    """A search reporting too small an order stops the chain early: the
    break loses pairs but keeps a representative of every orbit."""
    real = pipeline.find_generators
    for program, wrong in ((free_choice(range(1, 9)), (2, 6, 24, 120, 720)),
                           (pigeonhole(4, 3), (2, 6, 12, 24))):
        honest = break_program(program).pairs
        fewer = 0
        for bound in wrong:
            monkeypatch.setattr(pipeline, "find_generators",
                                lambda graph, *args: replace(real(graph, *args), order=bound))
            result = break_program(program)
            fewer += len(result.pairs) < len(honest)
            verdict = check_soundness(program, result.detection.generators, result.program)
            assert verdict.ok and verdict.surviving <= set(verdict.original), (program, bound)
        assert fewer


def test_gate_drops_bad_stabilizer_witnesses(monkeypatch):
    """Of the witnesses the chain hands over, one that is no symmetry, one
    that moves an atom ranked below its first atom and the identity give
    no pair; one equal to a validated generator gives its pair without a
    gate call."""
    program = GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,)), ChoiceRule((3,)),
                                   BasicRule(4, (1, 2, 3))))
    generator = AtomPermutation.from_cycles((1, 2))
    no_symmetry = AtomPermutation.from_cycles((1, 4))
    below_first = AtomPermutation.from_cycles((1, 2, 3))  # moves 1, pairs 2 with 3
    witnesses = [BinarySymmetry(1, 4, no_symmetry), BinarySymmetry(2, 3, below_first),
                 BinarySymmetry(3, 4, AtomPermutation({})), BinarySymmetry(1, 2, generator)]
    monkeypatch.setattr(pipeline, "stabilizer_binary_symmetries", lambda *args: witnesses)
    gated = []
    real_gate = pipeline.is_syntactic_symmetry
    monkeypatch.setattr(pipeline, "is_syntactic_symmetry",
                        lambda program, perm: gated.append(perm) or real_gate(program, perm))
    result = break_program(program)
    detection = result.detection
    assert generator in detection.generators and below_first not in detection.generators
    searched = len(detection.generators) + len(detection.rejected)
    assert gated[searched:] == [no_symmetry, below_first]
    assert result.pairs == [(1, 2)]
