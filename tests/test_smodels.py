"""Format reading, writing, validation, and the false-atom convention."""

import random
from functools import cache

import pytest

from symbreak import (BasicRule, CardinalityRule, ChoiceRule, DisjunctiveRule,
                      GroundProgram, MinimizeStatement, ParseError, Rule,
                      WeightRule, parse_program,
                      semantic_view, validate, write_program)
from symbreak import smodels
from symbreak.breaking import FreshAtoms, assemble
from symbreak.smodels import BASIC, CHOICE, DISJUNCTIVE, MINIMIZE, WEIGHT
from graph_oracles import (map_atoms, pairs, reference_parse_program,
                           reference_write_program)
from programs import (SMODELS_CORPUS, corpus, normalize_text, p1, p3, p5,
                      perfbench_workloads, with_repeated_atoms, workload_texts)


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
    assert pairs(rule) == [(4, False, 3), (3, True, 5), (5, True, 6)]


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


HEAD = "1 2 0 0\n0\n"  # one fact and the rules terminator


@pytest.mark.parametrize("text,line_no,message", [
    ("1 2 0 0\n1 3 0 0\n", 3,
     "unexpected end of input, expected a rule or the rules terminator 0"),
    (HEAD + "2 a\n2 b\n0\nB+\n0\nB-\n0\n1\n", 4, "atom 2 already has a name"),
    (HEAD + "2 a\rb\n0\nB+\n0\nB-\n0\n1\n", 3, "symbol line must be '<atom> <name>'"),
    (HEAD + "0\nB-\n0\nB+\n0\n1\n", 4, "expected B+ section header, got 'B-'"),
    (HEAD + "0\nB+\n0\nB+\n0\n1\n", 6, "expected B- section header, got 'B+'"),
    (HEAD + "0\nB+\n2 3\n0\nB-\n0\n1\n", 5, "B+ lines carry one atom each"),
    (HEAD + "0\nB+\n0\nB-\n2\n2 3\n0\n1\n", 8, "B- lines carry one atom each"),
    (HEAD + "0\nB+\n0\nB-\n0\n1 2\n", 8, "model count line carries one integer"),
    (HEAD + "0\nB+\n0\nB-\n0\n1\n\n0\n", 10,
     "unexpected content after the model count"),
], ids=["end-in-rules", "second-name", "carriage-return-in-name", "B+-header", "B--header", "B+-two-atoms",
        "B--two-atoms", "model-count-two-integers", "after-model-count"])
def test_parse_diagnostics(text, line_no, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


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
    bad = GroundProgram(rules=(BasicRule(0, (2,), ()),))
    assert validate(bad) == ["rule 1: atom index 0 must be >= 1"]


def test_validate_duplicate_names_and_bounds():
    bad = GroundProgram(rules=(CardinalityRule(1, -2, (2,), ()),),
                        symbols={1: "x", 2: "x"})
    problems = validate(bad)
    assert any("bound -2" in d for d in problems)
    assert any("'x' used 2 times" in d for d in problems)


def test_validate_reports_names_the_writer_cannot_round_trip():
    """A name is written on its own line and read back stripped, so an
    empty name, one with a line feed or with outer whitespace would not
    come back as it was.  A carriage return is refused too, as some other
    readers end a line there; the reader ends lines at a line feed alone,
    so other characters that ``str.splitlines`` splits on come back."""
    bad = ["a\nb", "", " a", "a\t", "a\rb"]
    good = ["a b", "a\x0cb", "a\u2028b", "a\x85b", "a\x0bb", "a\x1cb"]
    program = GroundProgram(rules=(ChoiceRule(tuple(range(1, 12))),),
                            symbols=dict(enumerate(bad + good, 1)))
    assert validate(program) == [
        f"symbol table: name {name!r} must be one non-empty line with no "
        "leading or trailing whitespace" for name in bad]
    for name in bad[:-1]:
        single = GroundProgram(rules=(ChoiceRule((1,)),), symbols={1: name})
        try:
            back = parse_program(write_program(single)).symbols
        except ParseError:
            continue
        assert back != single.symbols
    for name in good:
        single = GroundProgram(rules=(ChoiceRule((1,)),), symbols={1: name})
        assert validate(single) == []
        assert parse_program(write_program(single)).symbols == {1: name}


@pytest.mark.parametrize("program,problems", [
    (GroundProgram(rules=(ChoiceRule((2,)), WeightRule(1, 2, (2,), (3,), (1, -4)))),
     ["rule 2: weight -4 must be >= 0"]),
    (GroundProgram(rules=(ChoiceRule((2,)), ChoiceRule((3,)),
                          MinimizeStatement((2,), (), (-1,)))),
     ["rule 3: weight -1 must be >= 0"]),
    (GroundProgram(rules=(ChoiceRule((2,)),), model_count=-1),
     ["model count -1 must be >= 0"]),
], ids=["weight-rule", "minimize", "model-count"])
def test_validate_negative_values(program, problems):
    assert validate(program) == problems


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
    assert BasicRule(2, (), (1,)) in sem.rules
    assert semantic_view(p1()).false_atom == p1().max_atom + 1  # no constraints


def test_semantic_view_skips_false_atom_in_b_minus():
    sem = semantic_view(GroundProgram(rules=(BasicRule(1, (2,)),),
                                      compute_minus=(1,)))
    assert sem.rules == (BasicRule(1, (2,)),)


def test_a_parsed_bytearray_may_change_afterwards():
    """The parse keeps the decoded text, not the bytearray, for the writer
    to copy the rule section from."""
    text = write_program(p3())
    data = bytearray(text.encode())
    program = parse_program(data)
    data[:] = b"9" * len(data)
    assert write_program(program) == text


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
    """The parse, and the verdict the parser's pass gives, which is the
    full ``validate`` walk's."""
    docs = [write_program(program) for program in corpus()] + SMODELS_CORPUS
    for doc in docs:
        for text in spellings(doc):
            program = parse_program(text)
            assert program == reference_parse_program(text), text
            assert program.problems == tuple(validate(program)), text


def mutated_rule_lines(rng, doc):
    """Documents with one rule line truncated, a token replaced by a bad one
    or raised, tokens appended, or the line replaced by a choice or a
    disjunctive rule with an empty head list."""
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
        variants += [toks + ["1"], toks + ["0", "3"], ["3", "0", "1", "1", "2"],
                     ["8", "0", "0", "0"]]
        for variant in variants:
            yield "\n".join(lines[:i] + [" ".join(variant)] + lines[i + 1:])


def respellings(rng, doc):
    """The document with its rule section spelled otherwise: CRLF line
    ends, the terminator as `` 0 `` or ``00``, and at one rule line a tab,
    a double space, a leading or trailing space, a blank line, a leading
    zero, the rule split over two lines or joined with the next, the rule
    truncated, or a token appended."""
    lines = doc.split("\n")
    end = lines.index("0")
    section, tail = lines[:end], lines[end + 1:]
    yield doc.replace("\n", "\r\n")
    yield "\n".join(section + [" 0 "] + tail)
    yield "\n".join(section + ["00"] + tail)
    if not section:
        return
    k = rng.randrange(end)
    line, toks = section[k], section[k].split()

    def at(*new_lines):
        return "\n".join(section[:k] + list(new_lines) + section[k + 1:] + ["0"] + tail)

    j = rng.randrange(len(toks))
    cut = rng.randrange(1, len(toks))
    yield at(line.replace(" ", "\t", 1))
    yield at(line.replace(" ", "  ", 1))
    yield at(" " + line)
    yield at(line + " ")
    yield at(line, "")
    yield at(" ".join(toks[:j] + ["0" + toks[j]] + toks[j + 1:]))
    yield at(" ".join(toks[:cut]), " ".join(toks[cut:]))
    if k + 1 < end:
        yield "\n".join(section[:k] + [f"{line} {section[k + 1]}"] + section[k + 2:]
                        + ["0"] + tail)
    yield at(" ".join(toks[:-1]))
    yield at(line + " 1")


@cache
def decoder_texts() -> tuple:
    """The corpus as the writer spells it, the workload instances of seeds
    1-4, respellings of a third of the corpus and of two instances, and
    some of the corpus as bytes."""
    rng = random.Random(32)
    docs = SMODELS_CORPUS + [write_program(program) for program in corpus()]
    texts = docs + workload_texts(range(1, 5))
    texts += [t for doc in docs[::3] + workload_texts([1])[:2] for t in respellings(rng, doc)]
    return tuple(texts + [doc.encode() for doc in docs[::10]])


def rules_as_written(program: GroundProgram, text) -> bool:
    """Whether the program has rules, the text begins with their lines as
    the per-rule writer spells them, and its next line reads ``0``."""
    if isinstance(text, bytes):
        text = text.decode()
    n = len(program.rules)
    wire = reference_write_program(program).split("\n")[:n]
    return n > 0 and text.startswith("\n".join(wire) + "\n") and text.split("\n")[n] == "0"


def matches_reference(text):
    """The parse outcome, checked against the token-by-token parse: the
    program or every ParseError's message and line, the full ``validate``
    walk's verdict, the choice and disjunctive heads a program built in
    code finds, and the writer's text kept exactly when the rule section
    is in its spelling."""
    outcome = parse_outcome(parse_program, text)
    assert outcome == parse_outcome(reference_parse_program, text), text
    if isinstance(outcome, GroundProgram):
        assert outcome.problems == tuple(validate(outcome)), text
        assert outcome._free_heads == GroundProgram(*outcome)._free_heads, text
        assert ("_rule_text" in outcome.__dict__) == rules_as_written(outcome, text), text
    return outcome


def error_kind(outcome) -> str:
    """The first word of a (message, line) outcome's message."""
    return outcome[0].split(": ", 1)[1].split(" ")[0]


def test_parse_errors_match_reference():
    """Every error message and line number of the token-by-token parse,
    and for a mutant that parses, the full ``validate`` walk's verdict."""
    rng = random.Random(11)
    docs = SMODELS_CORPUS + [write_program(program) for program in corpus()[:120]]
    messages = set()
    mutants = invalid = 0
    for doc in docs:
        for text in mutated_rule_lines(rng, doc):
            mutants += 1
            outcome = matches_reference(text)
            if isinstance(outcome, GroundProgram):
                invalid += bool(outcome.problems)
            else:  # a (message, line) pair
                messages.add(error_kind(outcome))
    assert mutants >= 2000
    assert invalid >= 400
    assert {"truncated", "malformed", "atom", "unknown", "unexpected", "weight",
            "negative", "minimize"} <= messages


def test_one_pass_decoder_matches_per_line_decoder():
    """The block decoder against the line-by-line, token-by-token parse on
    ``decoder_texts()``, which it reads in every path: whole blocks, the
    writer's spelling kept or not, and blocks read again line by line to
    name a fault or to find a terminator spelled other than ``0``."""
    texts = decoder_texts()
    errors = {error_kind(outcome) for outcome in map(matches_reference, texts)
              if not isinstance(outcome, GroundProgram)}
    assert {"truncated", "unexpected", "weight"} <= errors
    assert len(texts) > 1500


def test_faults_at_block_boundaries_match_reference():
    """On the 9,000 rule lines of the seed-1 asym-large instance, a
    truncated rule, a malformed token, or a terminator spelled ``00`` or
    `` 0 `` on either side of the first two 128-line block boundaries and
    on the last rule line.  Each parse is the reference parse; a fault is
    named at its line, and a terminator ends the section there."""
    texts = dict(zip(perfbench_workloads().WORKLOADS, workload_texts([1])))
    lines = texts["asym-large"].split("\n")
    end = lines.index("0")
    assert end == 9000
    rules = parse_program(texts["asym-large"]).rules
    for line_no in (128, 129, 130, 256, 257, end):
        k = line_no - 1
        toks = lines[k].split()
        for fault in (" ".join(toks[:-1]), " ".join([toks[0], "x", *toks[2:]])):
            outcome = matches_reference("\n".join(lines[:k] + [fault] + lines[k + 1:]))
            assert outcome[1] == line_no, outcome
        for terminator in ("00", " 0 "):
            matches_reference("\n".join(lines[:k] + [terminator] + lines[k:]))
            program = matches_reference("\n".join(lines[:k] + [terminator] + lines[end + 1:]))
            assert program.rules == rules[:k]


def written_faults(parse, write, texts):
    """The texts whose parse ``write`` does not spell as the per-rule
    writer does: as parsed, as a ``_replace`` copy, as a program built in
    code from its fields, and with rules appended by ``assemble``; and the
    texts in the writer's spelling that do not come back as read."""
    for text in texts:
        try:
            program = parse(text)
        except ParseError:
            continue
        variants = [program, program._replace(), GroundProgram(*program)]
        if not program.problems:
            alloc = FreshAtoms(program)
            aux = alloc.fresh()
            fragment = (BasicRule(aux, (), ()), BasicRule(alloc.head, (aux,), ()))
            variants.append(assemble(program, [fragment], alloc)[0])
        as_read = text if isinstance(text, str) else text.decode()
        if any(write(p) != reference_write_program(p) for p in variants):
            yield text
        elif reference_write_program(program) == as_read and write(program) != as_read:
            yield text


def test_writer_matches_per_rule_writer(monkeypatch):
    texts = decoder_texts()
    assert list(written_faults(parse_program, write_program, texts)) == []
    canonical = [t for t in texts if isinstance(t, str) and t == normalize_text(t)]
    assert len(canonical) > 300

    def whole_text(program):
        """Writes the stored text in place of all rules, not the first k."""
        source, length, count = program.__dict__.get("_rule_text", ("", 0, 0))
        if not count:
            return write_program(program)
        head = source[:length]
        head = head if isinstance(head, str) else head.decode()
        return head + "\n" + write_program(program._replace(rules=()))

    assert next(written_faults(parse_program, whole_text, texts), None)

    decode = smodels._decode_section

    def any_spelling(lines, text):
        """Stores the section's text even where it is not in the writer's
        spelling."""
        rules, others, length, end = decode(lines, text)
        return rules, others, length or len("\n".join(lines[:end])), end

    monkeypatch.setattr(smodels, "_decode_section", any_spelling)
    respelled = [t for t in texts if isinstance(t, str) and t != normalize_text(t)]
    assert next(written_faults(parse_program, write_program, respelled), None)
