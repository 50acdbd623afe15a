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

``parse_program`` checks each line as it decodes it: every fault but a
choice or disjunctive rule with no heads, which its ``problems`` report,
is a ``ParseError``.  ``validate`` walks programs built in code.  The
rule section is decoded from one token stream per block of lines, each
block's lines split and its tokens converted in one go.  Only a block
that holds a fault, or a terminator spelled other than ``0`` alone on
its line, is read again line by line, to raise the first fault's
``ParseError`` with its line or to stop at the terminator.  A line ends
at a line feed alone, as the writer ends it.  When the section is
already in the writer's spelling, the program keeps a reference to the
input, and ``write_program`` copies those lines instead of rewriting the
rules.
"""

from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
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
_NO_HEADS = "head list must not be empty"
_FREE_KINDS = frozenset((CHOICE, DISJUNCTIVE))
# rule lines split and decoded together: enough to spread the per-block
# calls, few enough that a block's tokens reuse the memory the last freed
_BLOCK = 128


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
    properties fill.  The parser also puts there a reference to an input
    whose rule section is in the writer's spelling; a ``_replace`` copy
    starts with an empty ``__dict__`` and so is written rule by rule.
    """

    def __new__(cls, rules=(), symbols=None, compute_plus=(), compute_minus=(),
                model_count=1):
        rules, plus, minus = tuple(rules), tuple(compute_plus), tuple(compute_minus)
        symbols = {} if symbols is None else symbols
        return super().__new__(cls, rules, symbols, plus, minus, model_count)

    @cached_property
    def mentioned(self) -> frozenset[int]:
        """The atoms the rules and compute blocks mention."""
        return self._body_atoms.union(self.compute_plus, self.compute_minus,
                                      *map(itemgetter(1), self.rules))

    @cached_property
    def _body_atoms(self) -> frozenset[int]:
        """The atoms some rule's body mentions, which ``mentioned`` and
        the false-atom test share."""
        rules = self.rules
        return frozenset().union(*map(itemgetter(2), rules), *map(itemgetter(3), rules))

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

    @cached_property
    def _free_heads(self) -> frozenset[int]:
        """The heads of choice and disjunctive rules, which such a rule can
        make true; the false-atom test asks of them (set by the parser)."""
        return frozenset(chain.from_iterable(r.heads for r in self.rules
                                             if r.kind in _FREE_KINDS))

    def _heads_only(self, atom: int) -> bool:
        """Whether the atom occurs in no body, no choice or disjunctive
        head and not in B+."""
        return not (atom in self.compute_plus or atom in self._body_atoms
                    or atom in self._free_heads)

    def extended(self, rules, compute_minus) -> "GroundProgram":
        """This program with ``rules`` appended and ``compute_minus`` as
        its B- block.  The result's leading rules are this program's, so
        it keeps their input text for the writer."""
        out = GroundProgram(self.rules + tuple(rules), dict(self.symbols),
                            self.compute_plus, compute_minus, self.model_count)
        if "_rule_text" in self.__dict__:
            out.__dict__["_rule_text"] = self._rule_text
        return out

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """``validate``'s diagnostics, computed once (or set by the parser)."""
        return tuple(validate(self))

    @cached_property
    def view(self) -> "SemanticProgram":
        """``semantic_view(self)``, built on first use."""
        return semantic_view(self)

    def name_of(self, atom: int) -> str:
        """Display name for an atom; hidden atoms print as ``_<index>``."""
        return self.symbols.get(atom, f"_{atom}")


class SemanticProgram(NamedTuple("SemanticProgram", [
        ("rules", tuple[Rule, ...]), ("atoms", tuple[int, ...]),
        ("false_atom", int)])):
    """A program with compute blocks folded into constraints.

    ``false_atom`` heads the folded compute blocks and every constraint
    the breaking layer appends: the input's reserved atom, or else one
    past its ``max_atom``.  ``atoms`` are the atoms its rules mention but
    ``false_atom``, ascending; no rule derives any other atom, so those
    are false in every answer set.  All downstream semantics (graph
    encoding, syntactic symmetry checks, the oracle) work on this view,
    ``GroundProgram.view``, which also owns the gate's rule ``keys`` and
    atom ``occurrences``; the wire-level program keeps its compute blocks
    verbatim.
    """

    @cached_property
    def keys(self) -> "_Lazy":
        """Each rule's ``Rule.key()`` by position, computed on its first
        lookup only, so the gate keys just the rules its permutations
        touch."""
        # the maker holds the rules, not the view: a view that held itself
        # through it would be garbage only the cyclic collector frees
        return _Lazy(lambda i, rules=self.rules: rules[i].key())

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
    atoms = tuple(sorted(program.mentioned - {false}))
    plus = list(program.compute_plus)
    minus = [a for a in program.compute_minus if a != false]
    if false is None:
        false = program.max_atom + 1
    extra = [BasicRule(false, (), (a,)) for a in plus]
    extra += [BasicRule(false, (a,), ()) for a in minus]
    return SemanticProgram(program.rules + tuple(extra), atoms, false)


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


class _Lazy(dict):
    """A table whose value for a key is ``make(key)``, made on the key's
    first lookup only."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _decode_rule(values: list[int], line_no: int) -> Rule:
    """The rule on a line of non-negative integers, one path per wire type
    of ``_LAYOUTS``.

    A malformed line raises the ParseError of its first fault in wire
    order: the type, the heads, the bound and counts, the literal atoms,
    then the weights and any trailing tokens.  An empty head list is no
    wire fault; ``validate`` reports it.
    """
    kind = values[0]
    bound = None
    try:
        if kind == BASIC or kind == CARDINALITY or kind == WEIGHT:
            heads, i = (values[1],), 2
        elif kind == CHOICE or kind == DISJUNCTIVE:
            i = 2 + values[1]
            heads = tuple(values[2:i])
        elif kind == MINIMIZE:
            if values[1]:
                raise ParseError(line_no, "minimize statement must carry a 0 head "
                                          f"slot, got {values[1]}")
            heads, i = (), 2
        else:
            raise ParseError(line_no, f"unknown rule type {kind}")
        if 0 in heads:
            raise ParseError(line_no, "atom index 0 must be >= 1")
        if kind == WEIGHT:
            bound = values[i]
            i += 1
        nlit, nneg = values[i], values[i + 1]
        i += 2
        if kind == CARDINALITY:
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
    n = len(values)
    if end > n:
        raise ParseError(line_no, "truncated rule")
    weights = ()
    if kind == WEIGHT or kind == MINIMIZE:
        if n - end != nlit:
            raise ParseError(line_no, f"weight count mismatch: {nlit} literals, "
                                      f"{n - end} weights")
        weights = tuple(values[end:])
    elif end != n:
        raise ParseError(line_no, "unexpected trailing tokens on rule line")
    # tuple.__new__ skips the keyword handling of Rule's own constructor
    return tuple.__new__(Rule, (kind, heads, pos, neg, bound, weights))


def _decode_section(lines: list[str], text: str):
    """The rule section that opens ``lines``: its rules, the positions of
    those ``_decode_rule`` decoded, the length of the prefix of ``text``
    that spells the rules as the writer would, or 0, and the index of the
    terminator's line.  Raises the ParseError of the section's first fault.

    The section runs to the first line that reads ``0``, or to the end of
    input when none does, and is decoded from one token stream per block
    of lines.  Basic, cardinality and weight rules are decoded in line,
    each checked to end where its line ends; other kinds go through
    ``_decode_rule``.  A block that holds a fault, or a terminator spelled
    other than ``0`` alone on its line, fails as a whole: its rules are
    dropped and its lines read again one by one, which raises the first
    fault with its line or stops at the terminator, and the writer's
    spelling is not kept.
    """
    try:
        section = lines[:lines.index("0")]
    except ValueError:  # no line reads "0": a kind-0 line, if any, ends the section
        section = lines
    # each token is checked and converted by _int on its first lookup only,
    # so one that is no plain decimal raises its ParseError (without a line)
    table = _Lazy(lambda tok: _int(tok, 0))
    ints = table.__getitem__
    rules = []
    others = []
    append = rules.append
    new = tuple.__new__  # skips the keyword handling of Rule's own constructor
    spelled = 0  # characters of text in the writer's spelling; -1 once not
    for start in range(0, len(section), _BLOCK):
        rows = list(map(str.split, section[start:start + _BLOCK]))
        count, n_others = len(rules), len(others)
        try:
            values = tuple(map(ints, chain.from_iterable(rows)))
            i = 0
            for n in filter(None, map(len, rows)):
                j = i + n
                kind = values[i]
                if kind == BASIC:  # 1 head nlit nneg neg... pos...
                    split = i + 4 + values[i + 3]
                    neg, pos = values[i + 4:split], values[split:j]
                    head = values[i + 1]
                    if n != 4 + values[i + 2] or split > j or not head or 0 in neg or 0 in pos:
                        break
                    append(new(Rule, (BASIC, (head,), pos, neg, None, ())))
                elif kind == CARDINALITY:  # 2 head nlit nneg bound neg... pos...
                    split = i + 5 + values[i + 3]
                    neg, pos = values[i + 5:split], values[split:j]
                    head = values[i + 1]
                    if n != 5 + values[i + 2] or split > j or not head or 0 in neg or 0 in pos:
                        break
                    append(new(Rule, (CARDINALITY, (head,), pos, neg, values[i + 4], ())))
                elif kind == WEIGHT:  # 5 head bound nlit nneg neg... pos... weights...
                    nlit = values[i + 3]
                    split, end = i + 5 + values[i + 4], i + 5 + nlit
                    neg, pos = values[i + 5:split], values[split:end]
                    head = values[i + 1]
                    if n != 5 + 2 * nlit or split > end or not head or 0 in neg or 0 in pos:
                        break
                    append(new(Rule, (WEIGHT, (head,), pos, neg, values[i + 2],
                                      values[end:j])))
                else:
                    others.append(len(rules))
                    append(_decode_rule(values[i:j], 0))
                i = j
            else:  # every line of the block decoded
                if spelled >= 0:
                    wire = "\n".join(map(" ".join, rows)) + "\n"
                    spelled = (spelled + len(wire)
                               if all(rows) and text.startswith(wire, spelled) else -1)
                continue
        except (IndexError, ValueError):  # a malformed or over-long token, or
            pass                           # a line _decode_rule refuses
        # a fault or the terminator is in this block: read it line by line
        del rules[count:], others[n_others:]
        spelled = -1
        for line_no, line in enumerate(section[start:start + _BLOCK], start + 1):
            toks = line.split()
            if toks:
                values = [_int(tok, line_no) for tok in toks]
                if values == [0]:
                    return rules, others, 0, line_no - 1
                others.append(len(rules))
                append(_decode_rule(values, line_no))
    if section is lines:
        raise ParseError(len(lines) + 1,
                         "unexpected end of input, expected a rule or the rules terminator 0")
    # the writer would spell a token with a leading zero otherwise
    respelled = any(tok[0] == "0" and len(tok) > 1 for tok in table)
    length = spelled - 1 if spelled > 0 and not respelled else 0
    return rules, others, length, len(section)


def parse_program(text) -> GroundProgram:
    """Parse an smodels document from a string or byte stream; this pass
    also gives the program's ``problems``."""
    source = text
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(text.count(b"\n", 0, exc.start) + 1,
                             f"byte 0x{text[exc.start]:02x} is not valid UTF-8") from None
        if isinstance(source, bytearray):  # it may change after the parse
            source = text
    lines = text.split("\n")  # a line ends at "\n" alone, as the writer ends it
    if not lines[-1]:
        del lines[-1]
    rules, others, length, end = _decode_section(lines, text)
    line_no = end + 1
    rest = ((line, n) for n, line in enumerate(map(str.strip, lines[line_no:]), line_no + 1)
            if line)

    def next_line(what: str) -> tuple[str, int]:
        for found in rest:
            return found
        raise ParseError(len(lines) + 1, f"unexpected end of input, expected {what}")

    symbols: dict[int, str] = {}
    names_seen = set()
    while True:
        line, line_no = next_line("a symbol or the symbol terminator 0")
        if line == "0":
            break
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or "\r" in line:  # as for validate, no name holds a CR
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

    for _, line_no in rest:
        raise ParseError(line_no, "unexpected content after the model count")

    program = GroundProgram(tuple(rules), symbols, plus, minus, models)
    # of the faults validate looks for, the decoder and the checks above
    # let through only an empty head list; only choice and disjunctive
    # rules, among the others, can have one
    free = [i for i in others if rules[i].kind in _FREE_KINDS]
    program.__dict__["problems"] = tuple(
        f"rule {i + 1}: {_NO_HEADS}" for i in free if not rules[i].heads)
    program.__dict__["_free_heads"] = frozenset(
        chain.from_iterable(rules[i].heads for i in free))
    if length:
        # the input begins with the wire lines of all rules, ``length``
        # characters without the last newline; an ASCII prefix has the
        # same length in characters and in bytes
        program.__dict__["_rule_text"] = (source, length, len(rules))
    return program


def _wire_line(rule: Rule, text) -> str:
    """The rule's wire line, each integer turned to text by ``text``."""
    kind, heads, pos, neg, bound, weights = rule
    n_heads, bound_at, _ = _LAYOUTS[kind]
    parts = [kind]
    if n_heads is None:
        parts.append(len(heads))
    parts += heads
    if n_heads == 0:
        parts.append(0)
    if bound_at == "before":
        parts.append(bound)
    parts += (len(pos) + len(neg), len(neg))
    if bound_at == "after":
        parts.append(bound)
    parts += (*neg, *pos, *weights)
    return " ".join(map(text, parts))


def write_program(program: GroundProgram) -> str:
    """Serialize to canonical smodels text (single spaces, one final newline).

    The leading rules of a parsed program whose rule section came in this
    spelling are copied from the input, not rewritten.
    """
    text = _Lazy(str).__getitem__  # integers as decimal text
    source, length, count = program.__dict__.get("_rule_text", ("", 0, 0))
    head = source[:length]
    out = [head if isinstance(head, str) else head.decode()] if count else []
    out += [_wire_line(r, text) for r in program.rules[count:]]
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
            out.append(f"{where}: {_NO_HEADS}")
        elif layout.n_heads is not None and len(r.heads) != layout.n_heads:
            out.append(f"{where}: type {r.kind} takes {layout.n_heads} head atom(s), "
                       f"got {len(r.heads)}")

    names = Counter(program.symbols.values())
    for name, count in names.items():
        if count > 1:
            out.append(f"symbol table: name {name!r} used {count} times")
        # the writer puts each name on its own line and the reader strips it;
        # a carriage return ends a line for some other readers
        if not name or "\n" in name or "\r" in name or name != name.strip():
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
