"""Format reading, writing, validation, and the false-atom convention."""

import random

import pytest

from symbreak import (BasicRule, CardinalityRule, ChoiceRule, DisjunctiveRule,
                      GroundProgram, MinimizeStatement, ParseError, Rule,
                      WeightRule, parse_program,
                      semantic_view, validate, write_program)
from symbreak.smodels import BASIC, CHOICE, DISJUNCTIVE, MINIMIZE, WEIGHT
from graph_oracles import map_atoms, reference_parse_program
from programs import (SMODELS_CORPUS, corpus, normalize_text, p1, p3, p5,
                      with_repeated_atoms)


def test_parse_basic_rule_with_symbol():
    p = parse_program("1 2 1 0 3\n0\n2 p\n0\nB+\n0\nB-\n0\n1\n")
    assert p.rules == (BasicRule(2, (3,), ()),)
    assert p.symbols == {2: "p"}
    assert p.max_atom == 3


def test_parse_choice_rule():
    p = parse_program("3 1 2 0 0\n0\n0\nB+\n0\nB-\n0\n1\n")
    assert p.rules == (ChoiceRule((2,), (), ()),)


def test_parse_weight_rule_neg_then_pos():
    p = parse_program("5 2 7 3 1 4 3 5 3 5 6\n0\n0\nB+\n0\nB-\n0\n1\n")
    rule = p.rules[0]
    assert rule == WeightRule(head=2, bound=7, pos=(3, 5), neg=(4,),
                              weights=(3, 5, 6))
    assert rule.pairs() == [(4, False, 3), (3, True, 5), (5, True, 6)]


def test_parse_minimize_statement():
    p = parse_program("6 0 2 1 2 1 4 1\n0\n0\nB+\n0\nB-\n0\n1\n")
    assert p.rules == (MinimizeStatement(pos=(1,), neg=(2,), weights=(4, 1)),)


def test_parse_compute_blocks_and_model_count():
    p = parse_program("3 1 1 0 0\n0\n1 a\n0\nB+\n1\n0\nB-\n0\n2\n")
    assert p.compute_plus == (1,)
    assert p.compute_minus == ()
    assert p.model_count == 2


def test_write_empty_program():
    assert write_program(GroundProgram()) == "0\n0\nB+\n0\nB-\n0\n1\n"


def test_write_facts_program():
    text = write_program(p5())
    assert text.startswith("1 1 0 0\n1 2 0 0\n0\n")
    assert parse_program(text) == p5()


@pytest.mark.parametrize("doc", SMODELS_CORPUS)
def test_round_trip_corpus(doc):
    program = parse_program(doc)
    assert write_program(program) == normalize_text(doc)
    assert parse_program(write_program(program)) == program


@pytest.mark.parametrize("text,fragment", [
    ("1 2 x 0\n0\n0\nB+\n0\nB-\n0\n1\n", "malformed integer"),
    ("7 2 1 0 3\n0\n0\nB+\n0\nB-\n0\n1\n", "unknown rule type"),
    ("1 2 3 0 4\n0\n0\nB+\n0\nB-\n0\n1\n", "truncated rule"),
    ("5 2 7 2 0 3 4 9\n0\n0\nB+\n0\nB-\n0\n1\n", "weight count mismatch"),
    ("0\n1 p\n2 p\n0\nB+\n0\nB-\n0\n1\n", "duplicate symbol name"),
    ("1 2 1 0 3 9\n0\n0\nB+\n0\nB-\n0\n1\n", "trailing tokens"),
    ("1 2 1 0 3\n0\n0\n", "B+"),
    ("1 0 0 0\n0\n0\nB+\n0\nB-\n0\n1\n", "atom index 0"),
    ("1 \u00b2 0 0\n0\n0\nB+\n0\nB-\n0\n1\n", "malformed integer"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)


LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("text,line_no", [
    (f"1 2 1 0 {LONG}\n0\n0\nB+\n0\nB-\n0\n1\n", 1),
    (f"1 2 0 0\n0\n{LONG} a\n0\nB+\n0\nB-\n0\n1\n", 3),
    (f"1 2 0 0\n0\n0\nB+\n{LONG}\n0\nB-\n0\n1\n", 5),
    (f"1 2 0 0\n0\n0\nB+\n0\nB-\n{LONG}\n0\n1\n", 7),
    (f"1 2 0 0\n0\n0\nB+\n0\nB-\n0\n{LONG}\n", 8),
], ids=["rule", "symbol", "B+", "B-", "model count"])
def test_overlong_integer_is_a_parse_error(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert err.value.line_no == line_no
    assert "5000 digits" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_program("1 1 0 0\n7 9\n0\n0\nB+\n0\nB-\n0\n1\n")
    assert err.value.line_no == 2


def test_validate_clean_program():
    assert validate(p1()) == []


def test_validate_weight_arity():
    bad = GroundProgram(rules=(WeightRule(1, 2, (2, 3), (4,), (1, 1)),))
    problems = validate(bad)
    assert len(problems) == 1
    assert "3 literals but 2 weights" in problems[0]


def test_validate_index_range():
    bad = GroundProgram(rules=(BasicRule(9, (2,), ()),), max_atom=5)
    assert any("exceeds max atom 5" in d for d in validate(bad))


def test_validate_duplicate_names_and_bounds():
    bad = GroundProgram(rules=(CardinalityRule(1, -2, (2,), ()),),
                        symbols={1: "x", 2: "x"})
    problems = validate(bad)
    assert any("bound -2" in d for d in problems)
    assert any("'x' used 2 times" in d for d in problems)


def test_validate_rule_shape():
    bad = GroundProgram(rules=(Rule(1, (2, 3)), Rule(6, (2,)), Rule(7, (2,)),
                               Rule(2, (2,)), Rule(1, (2,), bound=1),
                               Rule(3, (2,), weights=(1,))))
    assert validate(bad) == [
        "rule 1: type 1 takes 1 head atom(s), got 2",
        "rule 2: type 6 takes 0 head atom(s), got 1",
        "rule 3: unknown rule type 7",
        "rule 4: type 2 needs a bound",
        "rule 5: type 1 takes no bound",
        "rule 6: type 3 takes no weights",
    ]


def test_rule_kind_key_and_map_atoms():
    assert [r.kind for r in (BasicRule(1), CardinalityRule(1, 0), ChoiceRule((1,)),
                             WeightRule(1, 0), MinimizeStatement(),
                             DisjunctiveRule((1,)))] == [1, 2, 3, 5, 6, 8]
    assert ChoiceRule((1, 2), (3, 4)).key() == ChoiceRule((2, 1), (4, 3)).key()
    assert ChoiceRule((1,)).key() != DisjunctiveRule((1,)).key()
    # weighted literals compare as (literal, weight) multisets
    assert (WeightRule(1, 2, (2, 3), (), (1, 2)).key()
            == WeightRule(1, 2, (3, 2), (), (2, 1)).key())
    assert (WeightRule(1, 2, (2, 3), (), (1, 2)).key()
            != WeightRule(1, 2, (2, 3), (), (2, 1)).key())
    swap = {2: 3, 3: 2}.get
    rule = WeightRule(2, 4, (3,), (2,), (5, 6))
    assert map_atoms(rule, lambda a: swap(a, a)) == WeightRule(3, 4, (2,), (3,), (5, 6))


def with_repeated_weighted_literal(rule: Rule) -> Rule:
    """A weight rule or minimize statement with its first negative and
    first positive literal written twice, each with its weight."""
    n, w = len(rule.neg), rule.weights
    return rule._replace(neg=rule.neg + rule.neg[:1], pos=rule.pos + rule.pos[:1],
                         weights=w[:n] + w[:min(n, 1)] + w[n:] + w[n:n + 1])


def test_rule_key_with_image_matches_map_atoms():
    rules = {}  # a dict keeps first-seen order, so the maps drawn are fixed
    for program in corpus():
        rules.update(dict.fromkeys(program.rules + with_repeated_atoms(program).rules))
    rules.update(dict.fromkeys(with_repeated_weighted_literal(r) for r in list(rules)
                               if r.kind in (WEIGHT, MINIMIZE)))
    repeated = {r.kind for r in rules if len(set(r.atoms())) < len(list(r.atoms()))}
    assert {WEIGHT, MINIMIZE, BASIC, CHOICE, DISJUNCTIVE} <= repeated
    rng = random.Random(3)
    checked = 0
    for rule in rules:
        atoms = sorted(set(rule.atoms()))
        top = max(atoms, default=0)
        shuffled = rng.sample(atoms, len(atoms))
        maps = [
            {},
            {top + 1: top + 2, top + 2: top + 1},  # moves only atoms it lacks
            dict(zip(atoms, shuffled)) | {top + 1: top + 3},
            {a: rng.randint(1, top + 2) for a in atoms if rng.random() < 0.7},
        ]
        for m in maps:
            assert rule.key(m) == map_atoms(rule, lambda a: m.get(a, a)).key(), (rule, m)
            checked += 1
    assert checked > 4000


def test_false_atom_detected_for_constraints():
    assert p3().false_atom == 1


def test_false_atom_requires_heads_only_use():
    assert p1().false_atom is None  # atom 1 heads a choice rule
    assert p5().false_atom is None  # atom 1 is named
    used_in_body = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2, (1,))))
    assert used_in_body.false_atom is None


def test_false_atom_by_name():
    named = GroundProgram(rules=(BasicRule(4, (2,)),), symbols={4: "_false"})
    assert named.false_atom == 4


def test_false_atom_name_requires_heads_only_use():
    """A ``_false`` atom that a body, a choice head or B+ mentions is an
    ordinary atom, as an unnamed atom 1 would be."""
    body = parse_program("1 2 1 0 1\n3 1 1 0 0\n0\n1 _false\n0\nB+\n0\nB-\n0\n1\n")
    assert body.false_atom is None
    choice = GroundProgram(rules=(ChoiceRule((1,)), BasicRule(1, (2,))), symbols={1: "_false"})
    assert choice.false_atom is None
    plus = GroundProgram(rules=(BasicRule(1, (2,)),), symbols={1: "_false"},
                         compute_plus=(1,))
    assert plus.false_atom is None
    minus = GroundProgram(rules=(BasicRule(4, (2,)),), symbols={4: "_false"},
                          compute_minus=(4,))
    assert minus.false_atom == 4
    # a rejected name leaves an unnamed atom 1 its own test
    fallback = GroundProgram(rules=(BasicRule(1, (2,)), BasicRule(2, (4,))),
                             symbols={4: "_false"})
    assert fallback.false_atom == 1


def test_false_atom_unreferenced_reserve():
    # grounder-style numbering: atom 1 reserved but unused
    p = parse_program("3 1 2 0 0\n0\n2 p\n0\nB+\n0\nB-\n0\n1\n")
    assert p.false_atom == 1


def test_semantic_view_folds_compute_blocks():
    p = parse_program("3 2 2 3 0 0\n0\n2 a\n3 b\n0\nB+\n2\n0\nB-\n3\n0\n1\n")
    sem = semantic_view(p)
    assert sem.false_atom == 1
    assert BasicRule(1, (), (2,)) in sem.rules
    assert BasicRule(1, (3,), ()) in sem.rules


def test_semantic_view_synthesizes_false_atom():
    p = GroundProgram(rules=(ChoiceRule((1,)),), compute_plus=(1,))
    sem = semantic_view(p)
    assert sem.false_atom == 2
    assert sem.max_atom == 2
    assert BasicRule(2, (), (1,)) in sem.rules


def test_semantic_view_skips_false_atom_in_b_minus():
    sem = semantic_view(GroundProgram(rules=(BasicRule(1, (2,)),),
                                      compute_minus=(1,)))
    assert sem.rules == (BasicRule(1, (2,)),)


def spellings(doc: str) -> list:
    """The document as written and with other whitespace between tokens."""
    return [doc, doc.replace(" ", "\t"), doc.replace(" ", "  ").replace("\n", "\n \n"),
            doc.replace("\n", "\r\n"), " " + doc.replace(" ", "\u00a0"),
            doc.encode()]


def parse_outcome(parse, text):
    """The parsed program, or the parse error's message and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no


def test_parse_matches_reference():
    docs = [write_program(program) for program in corpus()] + SMODELS_CORPUS
    for doc in docs:
        for text in spellings(doc):
            assert parse_program(text) == reference_parse_program(text), text


def mutated_rule_lines(rng, doc):
    """Documents with one rule line truncated, a token replaced by a bad one
    or raised, or tokens appended."""
    lines = doc.split("\n")
    end = lines.index("0")
    for i in rng.sample(range(end), min(end, 2)):
        toks = lines[i].split()
        variants = [toks[:k] for k in range(1, len(toks))]
        for j in range(len(toks)):
            variants.append(toks[:j] + [rng.choice(("0", "-1", "x", "\u00b2", "1.5"))]
                            + toks[j + 1:])
            variants.append(toks[:j] + [str(int(toks[j]) + rng.choice((1, 2, 5)))]
                            + toks[j + 1:])
        variants += [toks + ["1"], toks + ["0", "3"]]
        for variant in variants:
            yield "\n".join(lines[:i] + [" ".join(variant)] + lines[i + 1:])


def test_parse_errors_match_reference():
    """Every error message and line number of the token-by-token parse."""
    rng = random.Random(11)
    docs = SMODELS_CORPUS + [write_program(program) for program in corpus()[:120]]
    messages = set()
    mutants = 0
    for doc in docs:
        for text in mutated_rule_lines(rng, doc):
            mutants += 1
            outcome = parse_outcome(parse_program, text)
            assert outcome == parse_outcome(reference_parse_program, text), text
            if isinstance(outcome, tuple):
                messages.add(outcome[0].split(": ", 1)[1].split(" ")[0])
    assert mutants >= 2000
    assert {"truncated", "malformed", "atom", "unknown", "unexpected", "weight",
            "negative", "minimize"} <= messages
