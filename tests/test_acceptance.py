"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test results.
"""

import random
import time

from symbreak import (BreakConfig, answer_sets, break_program,
                      check_soundness, encode_program, find_generators,
                      is_syntactic_symmetry, lex_leader_rules, parse_program,
                      write_program)
from symbreak.breaking import FreshAtoms, assemble, break_rows
from symbreak.cli import main
from symbreak.pipeline import detect_symmetries
from symbreak.symmetry import AtomOrder, AtomPermutation, RowMatrix
from graph_oracles import brute_force_automorphisms, dense, group_closure
from programs import (SMODELS_CORPUS, free_choice, normalize_text, p1, p2, p3,
                      p4, p5, pigeonhole, random_program, record_fragment_aux)


def report(criterion, text):
    print(f"acceptance {criterion}: PASS - {text}")


def project(program, interps):
    return {frozenset(a for a in s if a <= program.max_atom) for s in interps}


def test_criterion_1_example_programs_detection():
    """Each of the five example programs yields the p/q transposition."""
    cases = [(p1(), 1, 2), (p2(), 1, 2), (p3(), 2, 3), (p4(), 1, 2), (p5(), 1, 2)]
    started = time.perf_counter()
    for program, a, b in cases:
        detection = detect_symmetries(program)
        swap = AtomPermutation({a: b, b: a})
        assert swap in detection.generators, program
        assert len(detection.rejected) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"P1-P5 all detect the (p q) transposition in {elapsed:.3f}s")


def test_criterion_2_lex_leader_exactness_on_p1():
    """Breaking (p q) on P1 keeps exactly one representative per orbit."""
    program = p1()
    alloc = FreshAtoms(program)
    frag = lex_leader_rules(AtomPermutation({1: 2, 2: 1}),
                            AtomOrder((1, 2)), 50, alloc)
    augmented = assemble(program, [frag], alloc)
    before = set(answer_sets(program))
    after = project(program, answer_sets(augmented))
    assert len(before) == 4
    assert after == {frozenset(), frozenset({2}), frozenset({1, 2})}
    report(2, "P1 models 4 -> 3, surviving sets {}, {q}, {p,q}")


def test_criterion_3_soundness_sweep():
    """200 random mixed-type programs: valid generators, sound pipeline."""
    rng = random.Random(20260808)
    started = time.perf_counter()
    generators_seen = 0
    reduced = 0
    kinds_seen = set()
    for i in range(200):
        program = random_program(rng)
        assert program.max_atom <= 10 and len(program.rules) <= 12
        kinds_seen.update(r.kind for r in program.rules)
        result = break_program(program)
        assert len(result.detection.rejected) == 0, (i, program)
        for g in result.detection.generators:
            assert is_syntactic_symmetry(program, g), (i, program, g)
        verdict = check_soundness(program, result.detection.generators,
                                  result.program, budget=16)
        assert verdict.ok, (i, program)
        # conservativeness: survivors are answer sets of the input
        survivors = project(program, answer_sets(result.program, budget=16))
        assert survivors <= set(answer_sets(program, budget=16)), (i, program)
        generators_seen += len(result.detection.generators)
        if len(verdict.surviving) < len(verdict.original):
            reduced += 1
    assert kinds_seen == {1, 2, 3, 5, 6, 8}  # every wire rule type
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(3, f"200 programs, {generators_seen} generators validated, "
              f"{reduced} programs strictly reduced, zero violations "
              f"in {elapsed:.1f}s")


def test_criterion_4_unsat_preservation():
    """Pigeonhole instances stay unsatisfiable through breaking."""
    small = pigeonhole(4, 3)
    assert answer_sets(small) == []
    broken_small = break_program(small)
    assert answer_sets(broken_small.program) == []

    large = pigeonhole(5, 4)  # 20 placement atoms, the oracle budget edge
    assert answer_sets(large) == []
    broken_large = break_program(large)
    # the augmentation is constraint-only plus fresh-atom definitions,
    # which cannot create answer sets; the oracle confirms directly too
    for rule in broken_large.program.rules[len(large.rules):]:
        assert rule.heads[0] == large.false_atom or rule.heads[0] > large.max_atom
    assert answer_sets(broken_large.program) == []
    report(4, "pigeonhole(4,3) and pigeonhole(5,4): 0 answer sets before "
              "and after breaking")


def test_criterion_5_complete_row_breaking():
    """Row matrices break to exactly the multiset counts."""
    counts = []
    for rows, base_atoms, expected in [
        (((1,), (2,), (3,)), [1, 2, 3], 4),
        (((1, 2), (3, 4), (5, 6)), range(1, 7), 20),
    ]:
        matrix = RowMatrix(rows)
        base = free_choice(base_atoms)
        alloc = FreshAtoms(base)
        frags = break_rows(matrix, AtomOrder(tuple(base_atoms)), 50, alloc)
        augmented = assemble(base, frags, alloc)
        before = len(answer_sets(base))
        after = len(answer_sets(augmented))
        assert after == expected, (rows, before, after)
        counts.append((before, after))
    assert counts == [(8, 4), (64, 20)]
    report(5, "free 3x1 matrix 8 -> 4 models, 3x2 matrix 64 -> 20 models")


def test_criterion_6_engine_matches_brute_force():
    """Generated group equals the brute-force group on 100 random graphs."""
    from programs import random_colored_graph
    rng = random.Random(31337)
    started = time.perf_counter()
    total_order = 0
    for i in range(100):
        graph = random_colored_graph(rng)
        brute = set(brute_force_automorphisms(graph))
        search = find_generators(graph)
        assert search.complete
        gens = [dense(g, graph.n_nodes) for g in search.generators]
        closure = group_closure(gens, graph.n_nodes)
        assert closure == brute, (i, graph.colors, sorted(graph.edges()))
        total_order += len(brute)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(6, f"100 graphs, cumulative group order {total_order}, "
              f"search = brute force in {elapsed:.1f}s")


def test_criterion_7_aux_budget(monkeypatch):
    """Per-symmetry auxiliary counts respect the default and --limit N."""
    suite = [p1(), p2(), p3(), p4(), p5(),
             pigeonhole(3, 2), pigeonhole(3, 3), pigeonhole(4, 3)]
    rng = random.Random(777)
    suite += [random_program(rng) for _ in range(40)]
    aux = record_fragment_aux(monkeypatch)
    for limit in (0, 3, 50):
        for program in suite:
            aux.clear()
            break_program(program, BreakConfig(aux_limit=limit))
            assert all(n <= limit for n in aux), (limit, program)
    aux.clear()
    break_program(pigeonhole(5, 4))
    assert all(n <= 50 for n in aux)
    report(7, "per-symmetry aux counts within limits 0, 3, 50 and the "
              "default 50 across the suite")


def test_criterion_7_aux_budget_through_the_cli(tmp_path, capsys):
    source = tmp_path / "php.lp"
    source.write_text(write_program(pigeonhole(3, 2)), encoding="utf-8")
    for limit in (0, 3, 50):
        out = tmp_path / f"out{limit}.lp"
        assert main([str(source), "-o", str(out), "--limit", str(limit)]) == 0
        augmented = parse_program(out.read_text(encoding="utf-8"))
        # with limit 0 no chain atoms may appear: every fresh atom is
        # the false head, which only heads constraints
        if limit == 0:
            fresh = [r for r in augmented.rules
                     if r not in pigeonhole(3, 2).rules]
            heads = {r.heads[0] for r in fresh}
            assert heads <= {pigeonhole(3, 2).false_atom}
    capsys.readouterr()


def test_criterion_8_format_fidelity():
    """Byte-exact round-trips over the hand-written corpus."""
    assert len(SMODELS_CORPUS) >= 20
    kinds = set()
    for doc in SMODELS_CORPUS:
        program = parse_program(doc)
        assert write_program(program) == normalize_text(doc)
        assert parse_program(write_program(program)) == program
        kinds.update(r.kind for r in program.rules)
        if program.compute_plus:
            kinds.add("B+")
        if program.compute_minus:
            kinds.add("B-")
    assert kinds >= {1, 2, 3, 5, 6, 8, "B+", "B-"}
    report(8, f"{len(SMODELS_CORPUS)} documents round-trip byte-exactly, "
              "all six rule types and both compute blocks covered")


def test_criterion_9_symmetry_invariance():
    """Answer sets are closed under every validated symmetry."""
    suite = [p1(), p2(), p3(), p4(), p5(), pigeonhole(3, 2), pigeonhole(3, 3)]
    rng = random.Random(90909)
    suite += [random_program(rng) for _ in range(60)]
    checked = 0
    for program in suite:
        detection = detect_symmetries(program)
        models = set(answer_sets(program, budget=16))
        for g in detection.generators:
            assert {g.apply_to_set(s) for s in models} == models, (program, g)
            checked += 1
    assert checked >= 40
    report(9, f"{checked} generator/program pairs preserve the stable models")
