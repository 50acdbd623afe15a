"""Shared program builders for the test suite.

P1..P5 are the small interchangeable-atom programs used throughout:
  P1: {p}. {q}.
  P2: r <- p, q.  {p}. {q}.
  P3: <- p, q.  {p}. {q}.
  P4: p | q <- p, q.  {p}. {q}.
  P5: p. q.
"""

import importlib.util
import random
from pathlib import Path

from symbreak import (BasicRule, CardinalityRule, ChoiceRule, DisjunctiveRule,
                      GroundProgram, MinimizeStatement, WeightRule, parse_program)
from symbreak.smodels import CHOICE, DISJUNCTIVE, MINIMIZE, WEIGHT


def p1() -> GroundProgram:
    return GroundProgram(rules=(ChoiceRule((1,)), ChoiceRule((2,))),
                         symbols={1: "p", 2: "q"})


def p2() -> GroundProgram:
    return GroundProgram(rules=(BasicRule(3, (1, 2)),
                                ChoiceRule((1,)), ChoiceRule((2,))),
                         symbols={1: "p", 2: "q", 3: "r"})


def p3() -> GroundProgram:
    # atom 1 is the reserved constraint head
    return GroundProgram(rules=(BasicRule(1, (2, 3)),
                                ChoiceRule((2,)), ChoiceRule((3,))),
                         symbols={2: "p", 3: "q"})


def p4() -> GroundProgram:
    return GroundProgram(rules=(DisjunctiveRule((1, 2), (1, 2)),
                                ChoiceRule((1,)), ChoiceRule((2,))),
                         symbols={1: "p", 2: "q"})


def p5() -> GroundProgram:
    return GroundProgram(rules=(BasicRule(1), BasicRule(2)),
                         symbols={1: "p", 2: "q"})


def pigeonhole(pigeons: int, holes: int) -> GroundProgram:
    """Place each pigeon in some hole, at most one pigeon per hole.

    Atom 1 is the reserved false atom; placement atoms follow row-major.
    Unsatisfiable exactly when pigeons > holes.
    """
    def place(p, h):
        return 1 + (p - 1) * holes + h

    rules = []
    for p in range(1, pigeons + 1):
        rules.append(ChoiceRule(tuple(place(p, h) for h in range(1, holes + 1))))
    for p in range(1, pigeons + 1):
        rules.append(BasicRule(1, (), tuple(place(p, h) for h in range(1, holes + 1))))
    for h in range(1, holes + 1):
        for pa in range(1, pigeons + 1):
            for pb in range(pa + 1, pigeons + 1):
                rules.append(BasicRule(1, (place(pa, h), place(pb, h))))
    symbols = {place(p, h): f"place({p},{h})"
               for p in range(1, pigeons + 1) for h in range(1, holes + 1)}
    return GroundProgram(tuple(rules), symbols, compute_minus=(1,))


def place_atom(pigeons: int, holes: int, p: int, h: int) -> int:
    return 1 + (p - 1) * holes + h


def free_choice(atoms) -> GroundProgram:
    """One singleton choice rule per atom: every subset is an answer set."""
    return GroundProgram(rules=tuple(ChoiceRule((a,)) for a in atoms),
                         max_atom=max(atoms))


def random_program(rng: random.Random) -> GroundProgram:
    """A small mixed-rule-type program the oracle can enumerate.

    Programs containing disjunctive rules stay extra small because the
    oracle falls back to full enumeration with a subset-minimality check
    for them.
    """
    want_disj = rng.random() < 0.2
    want_twin = rng.random() < 0.5
    use_false = want_disj is False and rng.random() < 0.6 or want_disj and rng.random() < 0.4
    headroom = 10 - int(use_false) - int(want_twin)
    n_real = rng.randint(2, min(5 if want_disj else 9, headroom))
    first = 2 if use_false else 1
    atoms = list(range(first, first + n_real))
    # stay within 10 atoms and 12 rules even after twin mirroring
    max_rules = (3 if want_twin else 6) if want_disj else (5 if want_twin else 12)
    choice_heads = 0

    def pick_lits(max_len):
        length = rng.randint(0, min(max_len, len(atoms)))
        chosen = rng.sample(atoms, length)
        pos = tuple(a for a in chosen if rng.random() < 0.6)
        neg = tuple(a for a in chosen if a not in pos)
        return pos, neg

    rules = []
    for _ in range(rng.randint(1, max_rules)):
        kinds = ["basic", "choice", "card", "weight", "minimize"]
        weights = [30, 25, 12, 12, 6]
        if use_false:
            kinds.append("constraint")
            weights.append(15)
        if want_disj:
            kinds.append("disj")
            weights.append(25)
        kind = rng.choices(kinds, weights)[0]
        pos, neg = pick_lits(4)
        if kind == "basic":
            rules.append(BasicRule(rng.choice(atoms), pos, neg))
        elif kind == "constraint":
            rules.append(BasicRule(1, pos, neg))
        elif kind == "choice":
            if want_disj and choice_heads >= 4:
                continue
            heads = tuple(rng.sample(atoms, rng.randint(1, 2)))
            choice_heads += len(heads)
            rules.append(ChoiceRule(heads, pos, neg))
        elif kind == "card":
            bound = rng.randint(0, len(pos) + len(neg) + 1)
            rules.append(CardinalityRule(rng.choice(atoms), bound, pos, neg))
        elif kind == "weight":
            ws = tuple(rng.randint(0, 3) for _ in range(len(pos) + len(neg)))
            bound = rng.randint(0, max(sum(ws), 1))
            rules.append(WeightRule(rng.choice(atoms), bound, pos, neg, ws))
        elif kind == "minimize":
            ws = tuple(rng.randint(0, 3) for _ in range(len(pos) + len(neg)))
            rules.append(MinimizeStatement(pos, neg, ws))
        elif kind == "disj":
            heads = tuple(rng.sample(atoms, rng.randint(2, min(3, len(atoms)))))
            rules.append(DisjunctiveRule(heads, pos, neg))

    # plant a guaranteed symmetry in about half the programs: a fresh twin
    # atom duplicating every rule that mentions a chosen original
    if want_twin and rules:
        x = rng.choice(atoms)
        y = atoms[-1] + 1
        atoms.append(y)

        # renamed in place rather than by graph_oracles.map_atoms: the
        # benchmark builds its instances with this module, and loading the
        # oracles there would add to its peak memory
        def twin(part):
            return tuple(y if a == x else a for a in part)

        mirrored = [r._replace(heads=twin(r.heads), pos=twin(r.pos), neg=twin(r.neg))
                    for r in rules if x in set(r.atoms())]
        rules.extend(mirrored)
        if rng.random() < 0.7:
            rules.append(ChoiceRule((x,)))
            rules.append(ChoiceRule((y,)))

    symbols = {a: f"a{a}" for a in atoms if rng.random() < 0.7}
    return GroundProgram(tuple(rules), symbols)


def corpus() -> list[GroundProgram]:
    """The golden inputs and more: p1-p5, pigeonhole p×h for h ≤ p ≤ 6,
    free_choice(range(1, k)) for k ≤ 12, random_program(Random(i)) for
    i < 300."""
    programs = [p1(), p2(), p3(), p4(), p5()]
    programs += [pigeonhole(p, h) for p in range(1, 7) for h in range(1, p + 1)]
    programs += [free_choice(range(1, k)) for k in range(2, 13)]
    programs += [random_program(random.Random(i)) for i in range(300)]
    return programs


def workload_instances(seeds) -> list[GroundProgram]:
    """The benchmark's timed instance of every workload for each seed, as
    ``perfbench/workloads.py`` writes it, parsed back."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_program(workloads.build(name, seed).instance)
            for seed in seeds for name in workloads.WORKLOADS]


def with_repeated_atoms(program: GroundProgram) -> GroundProgram:
    """The program with the first head, positive and negative atom of every
    unweighted rule written twice, so literals repeat within one rule."""
    rules = []
    for r in program.rules:
        if r.kind not in (WEIGHT, MINIMIZE):
            heads = r.heads + r.heads[:1] if r.kind in (CHOICE, DISJUNCTIVE) else r.heads
            r = r._replace(heads=heads, pos=r.pos + r.pos[:1], neg=r.neg + r.neg[:1])
        rules.append(r)
    return GroundProgram(tuple(rules), program.symbols, program.compute_plus,
                         program.compute_minus, program.model_count)


def random_colored_graph(rng: random.Random, max_nodes: int = 12):
    """A random simple colored graph with a brute-forceable color partition."""
    from math import factorial

    from graph_oracles import build_graph

    n = rng.randint(2, max_nodes)
    n_colors = rng.randint(1, 3)
    colors = [rng.randint(1, n_colors) for _ in range(n)]

    def space(cols):
        sizes = {}
        for c in cols:
            sizes[c] = sizes.get(c, 0) + 1
        total = 1
        for s in sizes.values():
            total *= factorial(s)
        return total

    while space(colors) > 50_000:
        colors[rng.randrange(n)] = max(colors) + 1
    density = rng.uniform(0.1, 0.6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    # plant a twin node now and then so nontrivial groups are common
    if rng.random() < 0.5 and n >= 2:
        u = rng.randrange(n)
        neighborhood = {w for a, b in edges for w in (a, b)
                        if u in (a, b)} - {u}
        colors.append(colors[u])
        edges.extend((w, n) for w in sorted(neighborhood))
    return build_graph(colors, edges)


def reference_answer_sets(program: GroundProgram):
    """Slow independent stable-model check for choice/basic/disjunctive
    programs, using the native choice reduct instead of shadow atoms."""
    from itertools import combinations

    from symbreak.smodels import BASIC, CHOICE, DISJUNCTIVE, MINIMIZE, semantic_view

    sem = semantic_view(program)
    false = sem.false_atom
    atoms = [a for a in range(1, sem.max_atom + 1) if a != false]

    def body_holds(interp, pos, neg):
        return all(a in interp for a in pos) and not any(b in interp for b in neg)

    def holds(rule, interp):
        if rule.kind in (BASIC, DISJUNCTIVE):
            return (any(h in interp for h in rule.heads)
                    or not body_holds(interp, rule.pos, rule.neg))
        if rule.kind in (CHOICE, MINIMIZE):
            return True
        raise TypeError(f"reference oracle cannot evaluate {rule!r}")

    out = set()
    for size in range(len(atoms) + 1):
        for chosen in combinations(atoms, size):
            interp = frozenset(chosen)
            if not all(holds(r, interp) for r in sem.rules):
                continue
            reduct = []
            for r in sem.rules:
                if any(b in interp for b in r.neg):
                    continue
                if r.kind in (BASIC, DISJUNCTIVE):
                    reduct.append((frozenset(r.heads), r.pos))
                elif r.kind == CHOICE:
                    for h in r.heads:
                        if h in interp:
                            reduct.append((frozenset((h,)), r.pos))

            def models(candidate):
                return all(heads & candidate or not all(a in candidate for a in pos)
                           for heads, pos in reduct)

            if not models(interp):
                continue
            on = sorted(interp)
            minimal = True
            for sub_size in range(len(on)):
                for sub in combinations(on, sub_size):
                    if models(frozenset(sub)):
                        minimal = False
                        break
                if not minimal:
                    break
            if minimal:
                out.add(frozenset(a for a in interp if a <= program.max_atom))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def record_fragment_aux(monkeypatch) -> list[int]:
    """Wrap the pipeline's fragment builders for the rest of the test.

    The returned list gets the aux-atom count of every fragment built for
    a row swap or a generator, in the order they are built.
    """
    from symbreak import pipeline

    counts = []
    real_lex, real_rows = pipeline.lex_leader_rules, pipeline.break_rows

    def lex(*args):
        frag = real_lex(*args)
        counts.append(len(frag.aux_atoms))
        return frag

    def rows(*args):
        frags = real_rows(*args)
        counts.extend(len(frag.aux_atoms) for frag in frags)
        return frags

    monkeypatch.setattr(pipeline, "lex_leader_rules", lex)
    monkeypatch.setattr(pipeline, "break_rows", rows)
    return counts


def normalize_text(text: str) -> str:
    """Whitespace normalization used by the round-trip tests."""
    lines = [" ".join(line.split()) for line in text.splitlines()]
    return "\n".join(line for line in lines if line) + "\n"


SMODELS_CORPUS = [
    # facts only
    "1 1 0 0\n1 2 0 0\n0\n1 p\n2 q\n0\nB+\n0\nB-\n0\n1\n",
    # P1: two singleton choices
    "3 1 1 0 0\n3 1 2 0 0\n0\n1 p\n2 q\n0\nB+\n0\nB-\n0\n1\n",
    # P2
    "1 3 2 0 1 2\n3 1 1 0 0\n3 1 2 0 0\n0\n1 p\n2 q\n3 r\n0\nB+\n0\nB-\n0\n1\n",
    # P3: constraint via reserved atom 1
    "1 1 2 0 2 3\n3 1 2 0 0\n3 1 3 0 0\n0\n2 p\n3 q\n0\nB+\n0\nB-\n0\n1\n",
    # P4: disjunctive rule
    "8 2 1 2 2 0 1 2\n3 1 1 0 0\n3 1 2 0 0\n0\n1 p\n2 q\n0\nB+\n0\nB-\n0\n1\n",
    # basic rule with negation
    "1 2 2 1 3 1\n3 1 1 0 0\n3 1 3 0 0\n0\n1 a\n2 b\n3 c\n0\nB+\n0\nB-\n0\n1\n",
    # cardinality, bound 1
    "2 4 3 1 1 3 1 2\n3 3 1 2 3 0 0\n0\n1 a\n2 b\n3 c\n4 d\n0\nB+\n0\nB-\n0\n1\n",
    # cardinality, bound 0 (fact-like)
    "2 2 1 0 0 1\n3 1 1 0 0\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n",
    # choice with body
    "3 2 2 3 2 1 1 4\n3 2 1 4 0 0\n0\n1 a\n2 b\n3 c\n4 d\n0\nB+\n0\nB-\n0\n1\n",
    # weight rule, mixed signs
    "5 2 7 3 1 4 3 5 3 5 6\n3 3 3 4 5 0 0\n0\n2 h\n3 x\n4 y\n5 z\n0\nB+\n0\nB-\n0\n1\n",
    # weight rule with duplicate literal occurrences
    "5 2 2 2 0 1 1 1 1\n3 1 1 0 0\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n",
    # weight rule with zero weights and zero bound
    "5 3 0 2 1 2 1 0 0\n3 2 1 2 0 0\n0\n1 a\n2 b\n3 c\n0\nB+\n0\nB-\n0\n1\n",
    # minimize statement, positive only
    "3 2 1 2 0 0\n6 0 2 0 1 2 2 3\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n",
    # minimize statement, mixed signs
    "3 2 1 2 0 0\n6 0 2 1 2 1 4 1\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n",
    # empty minimize
    "6 0 0 0\n0\n0\nB+\n0\nB-\n0\n1\n",
    # disjunctive with body and negation
    "8 3 2 3 4 2 1 1 5\n3 4 2 3 4 5 0 0\n0\n1 f\n2 u\n3 v\n4 w\n5 x\n0\nB+\n0\nB-\n0\n1\n",
    # B+ block used
    "3 1 2 0 0\n1 3 1 0 2\n0\n2 a\n3 b\n0\nB+\n2\n0\nB-\n0\n1\n",
    # B- block used
    "3 2 2 3 0 0\n0\n2 a\n3 b\n0\nB+\n0\nB-\n3\n0\n1\n",
    # both compute blocks
    "3 2 2 3 0 0\n0\n2 a\n3 b\n0\nB+\n2\n0\nB-\n3\n0\n1\n",
    # model count 0 (all models)
    "3 1 1 0 0\n0\n1 a\n0\nB+\n0\nB-\n0\n0\n",
    # model count 3
    "3 2 1 2 0 0\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n3\n",
    # hidden atoms, sparse symbol table
    "1 4 2 1 2 3\n3 2 2 3 0 0\n0\n3 visible\n0\nB+\n0\nB-\n0\n1\n",
    # empty program
    "0\n0\nB+\n0\nB-\n0\n1\n",
    # larger combined program exercising every rule type
    ("1 2 1 0 3\n2 4 2 1 1 5 3\n3 2 5 6 2 1 7 2\n5 8 4 3 1 6 5 7 2 2 3\n"
     "6 0 3 1 5 6 7 1 2 1\n8 2 6 7 2 0 2 3\n1 1 2 0 6 7\n"
     "0\n2 gear\n3 cog\n5 lever\n6 cam\n7 rod\n0\nB+\n3\n0\nB-\n7\n0\n1\n"),
]
