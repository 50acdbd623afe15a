"""Reader, writer, and validator for the lparse-smodels intermediate format.

A ground program arrives as whitespace-separated decimal integers, one rule
per line: a rules section (types 1, 2, 3, 5, 6 plus gringo's disjunctive
type 8) terminated by ``0``, a symbol table terminated by ``0``, the ``B+``
and ``B-`` compute blocks, and a final model count.

The wire format has no headless rule, so grounders emit integrity
constraints as basic rules whose head is a reserved atom that can never be
derived (conventionally atom 1, unnamed, placed in ``B-``).
``GroundProgram.false_atom`` recovers that convention, and its ``view``
(``semantic_view``, built once per program) names the one constraint head,
reserved or fresh, and folds the compute blocks into equivalent
constraints for everything downstream of parsing.  Nor does the format
state an atom count: ``GroundProgram.max_atom`` is read off the contents
on first use, so a program edited with ``_replace`` never carries a
stale one.
"""

from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from typing import Iterator, NamedTuple


class ParseError(ValueError):
    """Malformed smodels input, tagged with the 1-based source line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


BASIC, CARDINALITY, CHOICE, WEIGHT, MINIMIZE, DISJUNCTIVE = 1, 2, 3, 5, 6, 8


class Rule(NamedTuple):
    """One rule of any wire type, immutable.

    ``kind`` is the smodels type tag.  ``heads`` holds the single head
    atom of basic, cardinality and weight rules, any number of atoms for
    choice and disjunctive rules, and nothing for a minimize statement.
    ``bound`` is None for kinds whose wire line carries none.  ``weights``
    belong to weight rules and minimize statements only and run
    neg-then-pos, as on the wire.
    """

    kind: int
    heads: tuple[int, ...] = ()
    pos: tuple[int, ...] = ()
    neg: tuple[int, ...] = ()
    bound: int = None
    weights: tuple[int, ...] = ()

    def atoms(self) -> Iterator[int]:
        yield from self.heads
        yield from self.pos
        yield from self.neg

    def pairs(self) -> list[tuple[int, bool, int]]:
        """Weighted literals as (atom, is_positive, weight), wire order."""
        out = [(b, False, w) for b, w in zip(self.neg, self.weights)]
        out += [(a, True, w) for a, w in zip(self.pos, self.weights[len(self.neg):])]
        return out

    def key(self, image=None):
        """Equal for rules that differ at most in literal order: heads and
        body compare as multisets, weighted literals with their weights.
        The key is one flat tuple: kind, bound, the part lengths, then each
        part sorted.

        With a dict ``image``, the key of the rule with every atom ``a``
        replaced by ``image.get(a, a)``, built without the mapped rule.
        """
        kind, heads, pos, neg, bound, weights = self
        if image:
            get = image.get
            heads, pos, neg = map(get, heads, heads), map(get, pos, pos), map(get, neg, neg)
        heads = sorted(heads)
        if kind == WEIGHT or kind == MINIMIZE:
            body = [*zip(neg, repeat(False), weights),
                    *zip(pos, repeat(True), weights[len(self.neg):])]
            body.sort()
            return (kind, bound, len(heads), *heads, *body)
        pos = sorted(pos)
        neg = sorted(neg)
        return (kind, bound, len(heads), len(pos), *heads, *pos, *neg)


def BasicRule(head, pos=(), neg=()) -> Rule:
    """Wire type 1: ``head <- pos, not neg``."""
    return Rule(BASIC, (head,), pos, neg)


def CardinalityRule(head, bound, pos=(), neg=()) -> Rule:
    """Wire type 2: ``head <- bound <= #{pos, not neg}`` (lower bound only)."""
    return Rule(CARDINALITY, (head,), pos, neg, bound)


def ChoiceRule(heads, pos=(), neg=()) -> Rule:
    """Wire type 3: ``{heads} <- pos, not neg``."""
    return Rule(CHOICE, heads, pos, neg)


def WeightRule(head, bound, pos=(), neg=(), weights=()) -> Rule:
    """Wire type 5: ``head <- bound <= sum{..=w..}``, weights neg-then-pos."""
    return Rule(WEIGHT, (head,), pos, neg, bound, weights)


def MinimizeStatement(pos=(), neg=(), weights=()) -> Rule:
    """Wire type 6: weighted literal sum to minimize, weights neg-then-pos."""
    return Rule(MINIMIZE, (), pos, neg, None, weights)


def DisjunctiveRule(heads, pos=(), neg=()) -> Rule:
    """Wire type 8: ``h1 | ... | hk <- pos, not neg``."""
    return Rule(DISJUNCTIVE, heads, pos, neg)


class _Layout(NamedTuple):
    """Where a wire type keeps its heads, bound and weights.

    ``n_heads`` is 1 for a single head atom, 0 for minimize's constant 0
    slot, and None for a counted head list.  ``bound`` is "before" or
    "after" the two literal counts, or None.
    """

    n_heads: int | None
    bound: str | None
    weighted: bool


_LAYOUTS = {
    BASIC: _Layout(1, None, False),
    CARDINALITY: _Layout(1, "after", False),
    CHOICE: _Layout(None, None, False),
    WEIGHT: _Layout(1, "before", True),
    MINIMIZE: _Layout(0, None, True),
    DISJUNCTIVE: _Layout(None, None, False),
}


class GroundProgram(NamedTuple("GroundProgram", [
        ("rules", tuple[Rule, ...]), ("symbols", dict[int, str]),
        ("compute_plus", tuple[int, ...]), ("compute_minus", tuple[int, ...]),
        ("model_count", int)])):
    """A parsed smodels document.

    ``symbols`` maps visible atoms to their names in file order; atoms
    without an entry are hidden.  The largest atom index, ``max_atom``, is
    read off the contents, as the wire format carries none.

    Like every record of the package, a named tuple, so equality compares
    the fields alone; this subclass adds the ``__dict__`` that its cached
    properties fill.
    """

    def __new__(cls, rules=(), symbols=None, compute_plus=(), compute_minus=(),
                model_count=1):
        rules, plus, minus = tuple(rules), tuple(compute_plus), tuple(compute_minus)
        symbols = {} if symbols is None else symbols
        return super().__new__(cls, rules, symbols, plus, minus, model_count)

    @cached_property
    def mentioned(self) -> frozenset[int]:
        """The atoms the rules and compute blocks mention, read in one pass."""
        return frozenset(chain(self.compute_plus, self.compute_minus,
                               chain.from_iterable(r.heads + r.pos + r.neg for r in self.rules)))

    @cached_property
    def max_atom(self) -> int:
        """The largest atom index in the rules, symbols and compute
        blocks; 0 when there is none."""
        return max(chain(self.mentioned, self.symbols), default=0)

    @cached_property
    def false_atom(self):
        """The reserved constraint-head atom, or None.

        An atom qualifies when it is referenced only in single-head
        positions (where it can never be derived, making the rule a
        constraint) or in the B- block, which is how grounders reserve it.
        The atom named ``_false`` is taken when it qualifies, otherwise
        atom 1 when it is unnamed and qualifies.
        """
        for a, name in self.symbols.items():
            if name == "_false":
                if self._heads_only(a):
                    return a
                break
        if self.max_atom < 1 or 1 in self.symbols:
            return None
        return 1 if self._heads_only(1) else None

    def _heads_only(self, atom: int) -> bool:
        """Whether the atom occurs in no body, no choice or disjunctive
        head and not in B+."""
        if atom in self.compute_plus:
            return False
        for r in self.rules:
            if atom in r.pos or atom in r.neg:
                return False
            if r.kind in (CHOICE, DISJUNCTIVE) and atom in r.heads:
                return False
        return True

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``validate``'s diagnostics for this program, computed once."""
        return tuple(validate(self))

    @cached_property
    def view(self) -> "SemanticProgram":
        """``semantic_view(self)``, built on first use."""
        return semantic_view(self)

    def name_of(self, atom: int) -> str:
        """Display name for an atom; hidden atoms print as ``_<index>``."""
        return self.symbols.get(atom, f"_{atom}")


class SemanticProgram(NamedTuple("SemanticProgram", [
        ("rules", tuple[Rule, ...]), ("atoms", tuple[int, ...]), ("max_atom", int),
        ("false_atom", int)])):
    """A program with compute blocks folded into constraints.

    ``false_atom`` heads the folded compute blocks and every constraint
    the breaking layer appends: the input's reserved atom, or else one
    past its ``max_atom``, which the view's ``max_atom`` then counts.
    ``atoms`` are the atoms its rules mention but ``false_atom``,
    ascending; no rule derives any other atom, so those are false in
    every answer set, and nothing but fresh atoms is placed by
    ``max_atom``.  All downstream semantics (graph encoding, syntactic
    symmetry checks, the oracle) work on this view, ``GroundProgram.view``,
    which also owns the gate's rule ``keys`` and atom ``occurrences``; the
    wire-level program keeps its compute blocks verbatim.
    """

    @cached_property
    def keys(self) -> tuple:
        """Each rule's ``Rule.key()``, in rule order."""
        return tuple(r.key() for r in self.rules)

    @cached_property
    def occurrences(self) -> dict[int, list[int]]:
        """Per atom, the positions of the rules it occurs in, ascending."""
        out: dict[int, list[int]] = {}
        for i, r in enumerate(self.rules):
            for a in set(r.atoms()):
                out.setdefault(a, []).append(i)
        return out


def semantic_view(program: GroundProgram) -> SemanticProgram:
    false = program.false_atom
    max_atom = program.max_atom
    atoms = tuple(sorted(program.mentioned - {false}))
    plus = list(program.compute_plus)
    minus = [a for a in program.compute_minus if a != false]
    if false is None:
        max_atom += 1
        false = max_atom
    extra = [BasicRule(false, (), (a,)) for a in plus]
    extra += [BasicRule(false, (a,), ()) for a in minus]
    return SemanticProgram(program.rules + tuple(extra), atoms, max_atom, false)


def _int(tok: str, line_no: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(line_no, f"malformed integer {tok!r}")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ParseError(line_no, f"integer of {len(tok)} digits is too long") from None


def _atom(v: int, line_no: int) -> int:
    if v < 1:
        raise ParseError(line_no, f"atom index {v} must be >= 1")
    return v


def _decode_rule(values: list[int], line_no: int) -> Rule:
    """The rule on a line of non-negative integers.

    A malformed line raises the ParseError of its first fault in wire
    order: the type, the heads, the bound and counts, the literal atoms,
    then the weights and any trailing tokens.
    """
    try:
        n_heads, bound_at, weighted = _LAYOUTS[values[0]]
    except KeyError:
        raise ParseError(line_no, f"unknown rule type {values[0]}") from None
    try:
        if n_heads is None:
            i = 2 + values[1]
            heads = tuple(values[2:i])
        elif n_heads:
            i = 2
            heads = (values[1],)
        elif values[1]:
            raise ParseError(line_no, "minimize statement must carry a 0 head "
                                      f"slot, got {values[1]}")
        else:
            i = 2
            heads = ()
        if 0 in heads:
            raise ParseError(line_no, "atom index 0 must be >= 1")
        bound = None
        if bound_at == "before":
            bound = values[i]
            i += 1
        nlit, nneg = values[i], values[i + 1]
        i += 2
        if bound_at == "after":
            bound = values[i]
            i += 1
    except IndexError:
        raise ParseError(line_no, "truncated rule") from None
    if nneg > nlit:
        raise ParseError(line_no, f"negative count {nneg} exceeds literal count {nlit}")
    split, end = i + nneg, i + nlit
    neg, pos = tuple(values[i:split]), tuple(values[split:end])
    if 0 in neg or 0 in pos:
        raise ParseError(line_no, "atom index 0 must be >= 1")
    if end > len(values):
        raise ParseError(line_no, "truncated rule")
    weights = ()
    if weighted:
        weights = tuple(values[end:])
        if len(weights) != nlit:
            raise ParseError(line_no, f"weight count mismatch: {nlit} literals, "
                                      f"{len(weights)} weights")
    elif end != len(values):
        raise ParseError(line_no, "unexpected trailing tokens on rule line")
    return Rule(values[0], heads, pos, neg, bound, weights)


def parse_program(text) -> GroundProgram:
    """Parse an smodels document from a string or byte stream."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(text.count(b"\n", 0, exc.start) + 1,
                             f"byte 0x{text[exc.start]:02x} is not valid UTF-8") from None
    lines = text.splitlines()
    pos = 0

    def next_line(what: str) -> tuple[str, int]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line.strip():
                return line.strip(), pos
        raise ParseError(len(lines) + 1, f"unexpected end of input, expected {what}")

    rules = []
    while True:
        line, line_no = next_line("a rule or the rules terminator 0")
        toks = line.split()
        digits = "".join(toks)
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            values = list(map(int, toks))
        except ValueError:  # a malformed or over-long token; _int names it
            values = [_int(tok, line_no) for tok in toks]
        if values == [0]:
            break
        rules.append(_decode_rule(values, line_no))

    symbols: dict[int, str] = {}
    names_seen = set()
    while True:
        line, line_no = next_line("a symbol or the symbol terminator 0")
        if line == "0":
            break
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ParseError(line_no, "symbol line must be '<atom> <name>'")
        atom = _atom(_int(parts[0], line_no), line_no)
        name = parts[1].strip()
        if name in names_seen:
            raise ParseError(line_no, f"duplicate symbol name {name!r}")
        if atom in symbols:
            raise ParseError(line_no, f"atom {atom} already has a name")
        names_seen.add(name)
        symbols[atom] = name

    def compute_block(header: str) -> tuple[int, ...]:
        line, line_no = next_line(f"the {header} header")
        if line != header:
            raise ParseError(line_no, f"expected {header} section header, got {line!r}")
        atoms = []
        while True:
            line, line_no = next_line(f"an atom or the {header} terminator 0")
            if line == "0":
                return tuple(atoms)
            toks = line.split()
            if len(toks) != 1:
                raise ParseError(line_no, f"{header} lines carry one atom each")
            atoms.append(_atom(_int(toks[0], line_no), line_no))

    plus = compute_block("B+")
    minus = compute_block("B-")

    line, line_no = next_line("the model count")
    toks = line.split()
    if len(toks) != 1:
        raise ParseError(line_no, "model count line carries one integer")
    models = _int(toks[0], line_no)

    while pos < len(lines):
        if lines[pos].strip():
            raise ParseError(pos + 1, "unexpected content after the model count")
        pos += 1

    return GroundProgram(tuple(rules), symbols, plus, minus, models)


def _wire_line(rule: Rule) -> str:
    layout = _LAYOUTS[rule.kind]
    parts = [rule.kind]
    if layout.n_heads is None:
        parts.append(len(rule.heads))
    parts += rule.heads
    if layout.n_heads == 0:
        parts.append(0)
    if layout.bound == "before":
        parts.append(rule.bound)
    parts += (len(rule.pos) + len(rule.neg), len(rule.neg))
    if layout.bound == "after":
        parts.append(rule.bound)
    parts += [*rule.neg, *rule.pos, *rule.weights]
    return " ".join(map(str, parts))


def write_program(program: GroundProgram) -> str:
    """Serialize to canonical smodels text (single spaces, one final newline)."""
    out = [_wire_line(r) for r in program.rules]
    out.append("0")
    out.extend(f"{atom} {name}" for atom, name in program.symbols.items())
    out.append("0")
    out.append("B+")
    out.extend(str(a) for a in program.compute_plus)
    out.append("0")
    out.append("B-")
    out.extend(str(a) for a in program.compute_minus)
    out.append("0")
    out.append(str(program.model_count))
    return "\n".join(out) + "\n"


def validate(program: GroundProgram, first_rule: int = 0) -> list[str]:
    """Check every structural invariant; one diagnostic string per violation.

    Rules before position ``first_rule`` are skipped, for a program whose
    leading rules already passed this check; the symbol table, compute
    blocks and model count are always checked.
    """
    out = []

    def atom_ok(a, where):
        if a < 1:
            out.append(f"{where}: atom index {a} must be >= 1")

    for i, r in enumerate(program.rules[first_rule:], first_rule + 1):
        where = f"rule {i}"
        layout = _LAYOUTS.get(r.kind)
        if layout is None:
            out.append(f"{where}: unknown rule type {r.kind}")
            continue
        for a in r.atoms():
            atom_ok(a, where)
        if (r.bound is None) != (layout.bound is None):
            out.append(f"{where}: type {r.kind} "
                       + ("needs a bound" if r.bound is None else "takes no bound"))
        elif r.bound is not None and r.bound < 0:
            out.append(f"{where}: bound {r.bound} must be >= 0")
        if layout.weighted:
            nlit = len(r.pos) + len(r.neg)
            if len(r.weights) != nlit:
                out.append(f"{where}: {nlit} literals but {len(r.weights)} weights")
            for w in r.weights:
                if w < 0:
                    out.append(f"{where}: weight {w} must be >= 0")
        elif r.weights:
            out.append(f"{where}: type {r.kind} takes no weights")
        if layout.n_heads is None and not r.heads:
            out.append(f"{where}: head list must not be empty")
        elif layout.n_heads is not None and len(r.heads) != layout.n_heads:
            out.append(f"{where}: type {r.kind} takes {layout.n_heads} head atom(s), "
                       f"got {len(r.heads)}")

    names = Counter(program.symbols.values())
    for name, count in names.items():
        if count > 1:
            out.append(f"symbol table: name {name!r} used {count} times")
        # the writer puts each name on its own line and the reader strips it
        if name.splitlines() != [name] or name != name.strip():
            out.append(f"symbol table: name {name!r} must be one non-empty line "
                       "with no leading or trailing whitespace")
    for a in program.symbols:
        atom_ok(a, "symbol table")
    for a in program.compute_plus:
        atom_ok(a, "B+ block")
    for a in program.compute_minus:
        atom_ok(a, "B- block")
    if program.model_count < 0:
        out.append(f"model count {program.model_count} must be >= 0")
    return out
