"""End-to-end behavior of the break pipeline."""

import io
import random
import sys

import pytest

from symbreak import (BasicRule, BreakConfig, ChoiceRule, GroundProgram,
                      answer_sets, break_program, check_soundness,
                      detect_symmetries, parse_program, pipeline,
                      stabilizer_binary_symmetries, validate, write_program)
from symbreak.cli import main
from symbreak.smodels import BASIC
from graph_oracles import atom_node
from programs import (corpus, free_choice, p1, p2, p3, p4, p5, pigeonhole,
                      random_program, record_fragment_aux, workload_instances)


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
    """On the corpus, and with B+ or B- added where no false atom is
    reserved: each appended rule is a constraint headed by the view's
    false atom or defines an aux atom above the view, and B- gains that
    atom exactly when it is fresh and a rule was appended."""
    programs = corpus()
    programs += [variant for p in programs if p.false_atom is None
                 for variant in (p._replace(compute_plus=(1,)),
                                 p._replace(compute_minus=(p.max_atom,)))]
    for program in programs:
        head, top = program.view.false_atom, program.view.max_atom
        out = break_program(program).program
        appended = out.rules[len(program.rules):]
        assert out.rules[:len(program.rules)] == program.rules
        for rule in appended:
            assert rule.kind == BASIC
            assert rule.heads == (head,) or rule.heads[0] > top, (program, rule)
        declared = (head,) if program.false_atom is None and appended else ()
        assert out.compute_minus == program.compute_minus + declared
        if not appended:
            assert out == program


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
    for program in corpus():
        result = break_program(program)
        assert validate(result.program) == []
        for x in (program, result.program):
            assert parse_program(write_program(x)) == x, x


def test_max_atom_follows_a_replaced_rule_list():
    """``max_atom`` is read off the contents, so a program edited with
    ``_replace`` carries no stale count into validation or breaking."""
    base = free_choice(range(1, 4))
    program = base._replace(rules=base.rules + (ChoiceRule((9,)),))
    assert (base.max_atom, program.max_atom) == (3, 9)
    assert validate(program) == []
    result = break_program(program)
    assert result.program.max_atom > 9
    assert check_soundness(program, result.detection.generators, result.program).ok


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


def count_semantic_views(monkeypatch) -> list:
    """The programs of every ``semantic_view`` call from now on, through
    any ``symbreak`` module binding."""
    from symbreak import smodels
    calls = []
    real = smodels.semantic_view
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symbreak" and getattr(module, "semantic_view", None) is real:
            monkeypatch.setattr(module, "semantic_view",
                                lambda program: calls.append(program) or real(program))
    return calls


def test_one_semantic_view_per_break(monkeypatch):
    """The encoding and the gate read the one view of the input, however
    many permutations the gate checks."""
    calls = count_semantic_views(monkeypatch)
    for program in (pigeonhole(6, 5), free_choice(range(1, 17))):
        calls.clear()
        result = break_program(program)
        assert result.rows and result.pairs
        assert len(calls) == 1 and calls[0] is program


def test_two_semantic_views_per_verify_run(monkeypatch, capsys):
    """The break and the oracle share the input's view; the augmented
    program gets the only other one."""
    program = pigeonhole(3, 2)
    augmented = break_program(program).program
    calls = count_semantic_views(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(write_program(program)))
    assert main(["--mode", "verify"]) == 0
    assert "verification passed" in capsys.readouterr().err
    assert calls == [program, augmented]


def test_invalid_program_is_rejected_before_detection():
    """Atom 0 lies outside the encoding's atom range 1..max_atom;
    detection and break refuse the program with one message."""
    program = GroundProgram(rules=(BasicRule(0, (2,)),))
    with pytest.raises(ValueError) as detected:
        detect_symmetries(program)
    with pytest.raises(ValueError) as broken:
        break_program(program)
    assert str(detected.value) == str(broken.value) == (
        "invalid program: ['rule 1: atom index 0 must be >= 1']")


def test_false_name_on_any_atom_breaks_soundly():
    """Naming a random atom ``_false``, wherever the program uses it."""
    rng = random.Random(20261018)
    rejected = 0
    for i in range(80):
        program = random_program(rng)
        atom = rng.randint(1, program.max_atom)
        symbols = {a: name for a, name in program.symbols.items() if a != atom}
        program = program._replace(symbols={**symbols, atom: "_false"})
        rejected += program.false_atom != atom
        result = break_program(program)
        verdict = check_soundness(program, result.detection.generators,
                                  result.program, budget=16)
        assert verdict.ok, (i, program)
    assert rejected


def swapping_p_and_r(find_generators):
    """A search that also returns the swap of p and r in P2, which is no
    symmetry (r is derived from p and q)."""

    def faulty(graph, *args):
        search = find_generators(graph, *args)
        perm = list(range(graph.n_nodes))
        p, r = atom_node(graph, 1), atom_node(graph, 3)
        perm[p], perm[r], perm[p + 1], perm[r + 1] = r, p, r + 1, p + 1
        return search._replace(generators=search.generators + (tuple(perm),))

    return faulty


def test_gate_drops_a_search_permutation_that_is_no_symmetry(monkeypatch, capsys):
    """The swap of p and r in P2 loses at the gate: the break is the
    honest one and verify names the rejection."""
    honest = break_program(p2())
    monkeypatch.setattr(pipeline, "find_generators",
                        swapping_p_and_r(pipeline.find_generators))
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


def test_verify_names_a_rejection_when_the_search_runs_out(monkeypatch, capsys):
    """A gate rejection is a detection bug whatever the budget, so verify
    prints it and exits 4 even when the search budget ran out first."""
    real = pipeline.find_generators
    searches = []

    def recording(graph, *args):
        searches.append(real(graph, *args))
        return searches[-1]

    monkeypatch.setattr(pipeline, "find_generators", swapping_p_and_r(recording))
    monkeypatch.setattr("sys.stdin", io.StringIO(write_program(p2())))
    assert main(["--mode", "verify", "--budget", "1"]) == 4
    assert [s.complete for s in searches] == [False]
    assert capsys.readouterr().err.splitlines() == [
        "symbreak: search budget exceeded",
        "symbreak: VIOLATION: automorphism (p r) failed the syntactic symmetry check"]


def test_levels_hand_over_validated_generators_fixing_lower_atoms():
    """The pipeline pairs each level's base atom v with its orbit under the
    level's generators as they come, so each level must hand over a
    sub-list of the validated generators, in their order, none of which
    moves an atom ranked below v."""
    levels_seen = 0
    for program in [*corpus(), *workload_instances(range(1, 5))]:
        result = break_program(program, BreakConfig(stabilizer_levels=10 ** 6))
        gens, rank = result.detection.generators, result.order.rank
        for v, fixing in stabilizer_binary_symmetries(gens, result.order, 10 ** 6):
            remaining = iter(gens)
            assert all(s in remaining for s in fixing), program
            assert all(rank[a] >= rank[v] for s in fixing for a in s.support), program
            levels_seen += 1
    assert levels_seen >= 400


def test_stabilizer_pairs_cost_no_gate_call(monkeypatch):
    """On the benchmark's php and free-choice instances (seed 1) every
    strong generator at an emitted level is a validated generator, so the
    pipeline asks the gate only about the search's permutations."""
    php, free, _ = workload_instances([1])
    gated = []
    real_gate = pipeline.is_syntactic_symmetry
    monkeypatch.setattr(pipeline, "is_syntactic_symmetry",
                        lambda program, perm: gated.append(perm) or real_gate(program, perm))
    for program, calls in ((php, 9), (free, 15)):
        gated.clear()
        result = break_program(program)
        detection = result.detection
        assert len(gated) == len(detection.generators) + len(detection.rejected) == calls
        assert result.pairs
