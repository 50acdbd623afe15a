"""Exact stable-model engine for desk-size ground programs.

This is the ground truth against which every transformation in the package
is checked.  Choice rules are desugared into complementary shadow-atom
pairs and bounded bodies into their minimal satisfying sub-bodies, after
which the textbook reduct applies verbatim.  Enumeration runs over the
atoms the reduct can actually depend on (negated atoms, choice heads and
choice bodies); everything else is recovered from the least fixpoint, so a
program with many defined auxiliary atoms costs no more than its free
part.  Programs with disjunctive heads fall back to full enumeration with
an explicit subset-minimality check.
"""

from itertools import combinations
from typing import NamedTuple

from .smodels import (BASIC, CARDINALITY, CHOICE, DISJUNCTIVE, WEIGHT, BasicRule,
                      GroundProgram, Rule)


class OracleBudgetError(RuntimeError):
    """The candidate space is too large for exhaustive enumeration."""


EXPANSION_BUDGET = 1 << 16  # candidate sub-bodies one bounded body may expand to


def _minimal_cardinality_bodies(lits, bound):
    """Minimal sub-multisets of literal occurrences meeting the count bound."""
    if bound <= 0:
        return [()]
    if bound > len(lits):
        return []
    from math import comb
    if comb(len(lits), bound) > EXPANSION_BUDGET:
        raise OracleBudgetError(
            f"cardinality body expansion over {len(lits)} literals exceeds budget")
    return list(combinations(lits, bound))


def _minimal_weight_bodies(pairs, bound):
    """Minimal sub-multisets of weighted occurrences meeting the sum bound."""
    if bound <= 0:
        return [()]
    if 1 << len(pairs) > EXPANSION_BUDGET:
        raise OracleBudgetError(
            f"weight body expansion over {len(pairs)} literals exceeds budget")
    out = []
    for size in range(1, len(pairs) + 1):
        for sub in combinations(pairs, size):
            total = sum(w for _, _, w in sub)
            if total >= bound and all(total - w < bound for _, _, w in sub):
                out.append(tuple((a, is_pos) for a, is_pos, _ in sub))
    return out


class Desugared(NamedTuple):
    """Basic/disjunctive form of a program plus its bookkeeping.

    ``shadows`` lists (shadow, head, body_pos, body_neg) for each choice
    head; in a stable model the shadow is true exactly when the body holds
    and the head was not chosen, which makes its value a function of the
    original atoms; ``project_mask`` keeps an answer set's original atoms.
    """

    basic: tuple[Rule, ...]
    disjunctive: tuple[Rule, ...]
    n_atoms: int
    false_atom: int
    shadows: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]
    choice_body_atoms: frozenset[int]
    project_mask: int


def desugar(program: GroundProgram) -> Desugared:
    """Rewrite to basic + disjunctive rules with compute blocks folded in."""
    sem = program.view
    next_atom = sem.max_atom
    basic = []
    disj = []
    shadows = []
    choice_body = set()
    for r in sem.rules:
        if r.kind == BASIC:
            basic.append(r)
        elif r.kind == DISJUNCTIVE:
            disj.append(r)
        elif r.kind == CHOICE:
            choice_body.update(r.pos)
            choice_body.update(r.neg)
            for h in r.heads:
                next_atom += 1
                shadow = next_atom
                basic.append(BasicRule(h, r.pos, r.neg + (shadow,)))
                basic.append(BasicRule(shadow, r.pos, r.neg + (h,)))
                shadows.append((shadow, h, r.pos, r.neg))
        elif r.kind in (CARDINALITY, WEIGHT):
            if r.kind == CARDINALITY:
                lits = [(a, True) for a in r.pos] + [(b, False) for b in r.neg]
                subs = _minimal_cardinality_bodies(lits, r.bound)
            else:
                subs = _minimal_weight_bodies(r.pairs(), r.bound)
            for sub in subs:
                basic.append(Rule(BASIC, r.heads,
                                  tuple(a for a, p in sub if p),
                                  tuple(a for a, p in sub if not p)))
    project = _or_bits(a for a in range(1, program.max_atom + 1) if a != sem.false_atom)
    return Desugared(tuple(basic), tuple(disj), next_atom, sem.false_atom,
                     tuple(shadows), frozenset(choice_body), project)


def _bit(atom: int) -> int:
    return 1 << (atom - 1)


def _mask_atoms(mask: int) -> frozenset[int]:
    out = []
    a = 1
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return frozenset(out)


def _gray_subsets(bits: list[int]):
    """All subset masks of the given bit list, one bit flipped per step."""
    cand = 0
    yield cand
    for i in range(1, 1 << len(bits)):
        cand ^= bits[(i & -i).bit_length() - 1]
        yield cand


def _compile_rules(rules):
    return [(_or_bits(r.heads), _or_bits(r.pos), _or_bits(r.neg)) for r in rules]


def _or_bits(atoms) -> int:
    m = 0
    for a in atoms:
        m |= _bit(a)
    return m


def _answer_sets_fixpoint(d: Desugared, budget: int):
    false_mask = _bit(d.false_atom)
    shadow_atoms = {s for s, _, _, _ in d.shadows}
    neg_atoms = set()
    for r in d.basic:
        neg_atoms.update(r.neg)
    relevant = ((neg_atoms | d.choice_body_atoms) - shadow_atoms)
    relevant.discard(d.false_atom)
    if len(relevant) > budget:
        raise OracleBudgetError(
            f"{len(relevant)} enumeration atoms exceed the oracle budget {budget}")

    rel_bits = [_bit(a) for a in sorted(relevant)]
    rel_mask = _or_bits(relevant)
    shadow_mask = _or_bits(shadow_atoms)
    rs_mask = rel_mask | shadow_mask

    rules = _compile_rules(d.basic)
    # constraints over enumerated atoms only can veto a candidate up front
    reject = [(pm, nm) for hb, pm, nm in rules
              if hb == false_mask and (pm | nm) & ~rel_mask == 0]
    shadow_ext = [(_bit(s), _bit(h), _or_bits(bp), _or_bits(bn))
                  for s, h, bp, bn in d.shadows]

    found = set()
    for cand in _gray_subsets(rel_bits):
        vetoed = False
        for pm, nm in reject:
            if cand & pm == pm and not cand & nm:
                vetoed = True
                break
        if vetoed:
            continue
        ext = cand
        for sb, hb, bp, bn in shadow_ext:
            if cand & bp == bp and not cand & bn and not cand & hb:
                ext |= sb
        derived = 0
        changed = True
        dead = False
        active = [(hb, pm) for hb, pm, nm in rules if not nm & ext]
        while changed and not dead:
            changed = False
            for hb, pm in active:
                if derived & hb:
                    continue
                if derived & pm == pm:
                    derived |= hb
                    changed = True
                    if derived & false_mask:
                        dead = True
                        break
        if dead:
            continue
        if derived & rs_mask == ext:
            found.add(_mask_atoms(derived & d.project_mask))
    return found


def _answer_sets_full(d: Desugared, budget: int):
    free = [a for a in range(1, d.n_atoms + 1) if a != d.false_atom]
    if len(free) > budget:
        raise OracleBudgetError(
            f"{len(free)} enumeration atoms exceed the oracle budget {budget}")
    basic = _compile_rules(d.basic)
    disj = _compile_rules(d.disjunctive)
    found = set()
    for interp in _gray_subsets([_bit(a) for a in free]):
        ok = True
        for hb, pm, nm in basic:
            if not interp & nm and interp & pm == pm and not interp & hb:
                ok = False
                break
        if ok:
            for hm, pm, nm in disj:
                if not interp & nm and interp & pm == pm and not interp & hm:
                    ok = False
                    break
        if not ok:
            continue
        surviving = [(hb, pm) for hb, pm, nm in basic if not interp & nm]
        surviving_disj = [(hm, pm) for hm, pm, nm in disj if not interp & nm]
        on_bits = [b for b in ( _bit(a) for a in free) if interp & b]
        minimal = True
        for sub in _gray_subsets(on_bits):
            if sub == interp:
                continue
            sub_ok = all(not (sub & pm == pm and not sub & hb)
                         for hb, pm in surviving)
            if sub_ok:
                sub_ok = all(not (sub & pm == pm and not sub & hm)
                             for hm, pm in surviving_disj)
            if sub_ok:
                minimal = False
                break
        if minimal:
            found.add(_mask_atoms(interp & d.project_mask))
    return found


def answer_sets(program: GroundProgram, budget: int = 20) -> list[frozenset[int]]:
    """All stable models, projected onto the program's own atom range.

    ``budget`` bounds the number of atoms enumerated over (2^budget
    candidates); defined atoms recovered by fixpoint are free.
    """
    d = desugar(program)
    if d.disjunctive:
        found = _answer_sets_full(d, budget)
    else:
        found = _answer_sets_fixpoint(d, budget)
    return sorted(found, key=lambda s: tuple(sorted(s)))


class SoundnessVerdict(NamedTuple):
    """Outcome of the orbit check: every answer set of the input must have
    a symmetric image surviving in the augmented program.

    ``original`` lists the input's answer sets; ``surviving`` holds the
    augmented program's, projected onto the input's atoms.
    """

    ok: bool
    missing: tuple[frozenset[int], ...]
    original: tuple[frozenset[int], ...]
    surviving: frozenset[frozenset[int]]


def check_soundness(program: GroundProgram, generators, augmented: GroundProgram,
                    budget: int = 20) -> SoundnessVerdict:
    """Verify that symmetry breaking kept a representative of every orbit.

    ``generators`` are atom permutations; the orbit of each answer set of
    ``program`` under the group they generate must intersect the answer
    sets of ``augmented`` projected back onto the original vocabulary.
    """
    base = answer_sets(program, budget)
    keep = frozenset(frozenset(a for a in interp if a <= program.max_atom)
                     for interp in answer_sets(augmented, budget))
    missing = []
    for interp in base:
        orbit = {interp}
        frontier = [interp]
        while frontier:
            current = frontier.pop()
            for g in generators:
                image = g.apply_to_set(current)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        if not orbit & keep:
            missing.append(interp)
    return SoundnessVerdict(not missing, tuple(missing), tuple(base), keep)
