"""Exact stable-model engine for desk-size ground programs.

This is the ground truth against which every transformation in the package
is checked.  It reads the rules of ``GroundProgram.view`` as they are and
checks each candidate against their reduct, the smodels semantics of
weight constraints (Simons, Niemelä & Soininen, "Extending and implementing
the stable model semantics", AIJ 2002): a rule whose negative body the
candidate meets drops, a choice rule keeps just the heads the candidate
holds, and a cardinality or weight bound is lowered by the weights of the
negative literals the candidate leaves false.

Enumeration runs over a guess set.  For a normal program that is the
choice heads and the atoms under negation, which together fix the reduct;
a guess is stable when the reduct's least model derives no false atom and
agrees with the guess on the guessed atoms, so defined auxiliary atoms
cost nothing.  A program with a disjunctive rule guesses every atom, and a
guess is stable when it is a model of its reduct and no proper subset is;
every model of the reduct holds the least model of its single-head rules,
so only the subsets that hold it are tried.  Minimize statements play no part.

``check_soundness`` alone decides whether a break is sound, walking each
orbit of the input's answer sets once.
"""

from typing import NamedTuple

from .smodels import CARDINALITY, CHOICE, DISJUNCTIVE, MINIMIZE, WEIGHT, GroundProgram


class OracleBudgetError(RuntimeError):
    """The candidate space is too large for exhaustive enumeration."""


def _or_bits(atoms, bit) -> int:
    m = 0
    for a in atoms:
        m |= bit[a]
    return m


def _mask_atoms(mask: int, atoms) -> frozenset[int]:
    return frozenset(atoms[i] for i in range(mask.bit_length()) if mask >> i & 1)


def _subsets(mask: int):
    """All subset masks of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _compile(rules, bit):
    """Plain rules as ``(heads, pos, neg, need)`` masks and bounded ones as
    ``(head, bound, pos, neg)`` with ``(bit, weight)`` literal lists.

    A choice rule gives one entry per head, whose ``need`` is that head:
    it stays in a candidate's reduct only when the candidate holds the
    head, so every entry reads "some head holds".  A bound of at most 0 is
    a fact, one above the total weight never fires, and zero-weight
    literals drop.  ``bit`` maps each atom to its bit.
    """
    plain, bounded = [], []
    for r in rules:
        if r.kind in (CARDINALITY, WEIGHT):
            weights = r.weights if r.kind == WEIGHT else (1,) * (len(r.neg) + len(r.pos))
            neg = [(bit[b], w) for b, w in zip(r.neg, weights) if w > 0]
            pos = [(bit[a], w) for a, w in zip(r.pos, weights[len(r.neg):]) if w > 0]
            if r.bound <= 0:
                plain.append((bit[r.heads[0]], 0, 0, 0))
            elif r.bound <= sum(w for _, w in neg + pos):
                bounded.append((bit[r.heads[0]], r.bound, pos, neg))
        elif r.kind == CHOICE:
            pm, nm = _or_bits(r.pos, bit), _or_bits(r.neg, bit)
            plain.extend((bit[h], pm, nm, bit[h]) for h in r.heads)
        elif r.kind != MINIMIZE:
            plain.append((_or_bits(r.heads, bit), _or_bits(r.pos, bit),
                          _or_bits(r.neg, bit), 0))
    return plain, bounded


def _reduct(cand: int, plain, bounded):
    """The candidate's reduct: ``(heads, pos)`` masks and ``(head, bound,
    pos)`` bounded rules, each bound lowered by the weights of the negative
    literals the candidate leaves false."""
    rules = [(heads, pos) for heads, pos, neg, need in plain
             if not cand & neg and cand & need == need]
    weighed = []
    for head, bound, pos, neg in bounded:
        bound -= sum(w for b, w in neg if not cand & b)
        if bound <= 0:
            rules.append((head, 0))
        else:
            weighed.append((head, bound, pos))
    return rules, weighed


def _is_model(interp: int, rules, weighed) -> bool:
    return (all(interp & heads or interp & pos != pos for heads, pos in rules)
            and all(interp & head or sum(w for b, w in pos if interp & b) < bound
                    for head, bound, pos in weighed))


def _least_model(rules, weighed, false: int) -> int:
    """The least model of a reduct with single heads, cut short once it
    holds the false atom."""
    model = 0
    changed = True
    while changed:
        changed = False
        for heads, pos in rules:
            if model & pos == pos and not model & heads:
                model |= heads
                if model & false:
                    return model
                changed = True
        for head, bound, pos in weighed:
            if not model & head and sum(w for b, w in pos if model & b) >= bound:
                model |= head
                if model & false:
                    return model
                changed = True
    return model


def answer_sets(program: GroundProgram, budget: int = 20) -> list[frozenset[int]]:
    """All stable models, projected onto the program's own atom range.

    ``budget`` bounds the number of guessed atoms (2^budget candidates);
    atoms a normal program defines from the guess are free.
    """
    sem = program.view
    # bits by position, so masks grow with the atoms, not their indices
    bit = {a: 1 << i for i, a in enumerate(sem.atoms)}
    false = bit[sem.false_atom] = 1 << len(sem.atoms)
    plain, bounded = _compile(sem.rules, bit)
    disjunctive = any(r.kind == DISJUNCTIVE for r in sem.rules)
    if disjunctive:
        guess = false - 1  # every atom but the false one
    else:
        guess = 0
        for _, _, neg, need in plain:
            guess |= neg | need
        for _, _, _, neg in bounded:
            for b, _ in neg:
                guess |= b
    n_guessed = guess.bit_count()
    if n_guessed > budget:
        raise OracleBudgetError(
            f"{n_guessed} enumeration atoms exceed the oracle budget {budget}")
    # constraints over guessed atoms only can veto a candidate up front
    reject = [(pos, neg) for heads, pos, neg, _ in plain
              if heads == false and (pos | neg) & ~guess == 0]

    found = []
    for cand in _subsets(guess):
        for pos, neg in reject:
            if cand & pos == pos and not cand & neg:
                break
        else:
            rules, weighed = _reduct(cand, plain, bounded)
            if disjunctive:
                if _is_model(cand, rules, weighed):
                    # every model of the reduct holds the least model of
                    # its single-head part, so smaller models extend it
                    least = _least_model([r for r in rules if r[0].bit_count() == 1],
                                         weighed, false)
                    if not any(least | sub != cand and _is_model(least | sub, rules, weighed)
                               for sub in _subsets(cand & ~least)):
                        found.append(_mask_atoms(cand, sem.atoms))
            else:
                model = _least_model(rules, weighed, false)
                if not model & false and model & guess == cand:
                    found.append(_mask_atoms(model, sem.atoms))
    return sorted(found, key=lambda s: tuple(sorted(s)))


class SoundnessVerdict(NamedTuple):
    """Outcome of ``check_soundness``: the input's answer sets (``original``),
    the augmented program's projected onto the input's atoms (``surviving``),
    the first answer set of each orbit left without a survivor (``missing``),
    the survivors that are no answer sets of the input (``extra``), and the
    generators, in order, that move an answer set out of the set
    (``unpreserved``).  ``ok`` holds when the last three are empty."""

    ok: bool
    missing: tuple[frozenset[int], ...]
    original: tuple[frozenset[int], ...]
    surviving: frozenset[frozenset[int]]
    extra: tuple[frozenset[int], ...]
    unpreserved: tuple


def check_soundness(program: GroundProgram, generators, augmented: GroundProgram,
                    budget: int = 20) -> SoundnessVerdict:
    """Decide whether breaking ``program`` into ``augmented`` is sound: each
    orbit of the input's answer sets under ``generators`` keeps a survivor,
    no survivor is a new answer set, and each generator maps the answer sets
    onto themselves.  One walk closes each orbit once, from the first answer
    set no earlier walk reached, so each answer set meets each generator
    once; an image that is no answer set only marks its generator."""
    base = answer_sets(program, budget)
    keep = frozenset(frozenset(a for a in interp if a <= program.max_atom)
                     for interp in answer_sets(augmented, budget))
    reached = dict.fromkeys(base, False)
    broken, missing = set(), []
    for interp in base:
        if not reached[interp]:
            reached[interp] = True
            orbit = [interp]
            for current in orbit:
                for i, g in enumerate(generators):
                    image = g.apply_to_set(current)
                    if image not in reached:
                        broken.add(i)
                    elif not reached[image]:
                        reached[image] = True
                        orbit.append(image)
            if keep.isdisjoint(orbit):
                missing.append(interp)
    extra = tuple(sorted(keep - reached.keys(), key=sorted))
    unpreserved = tuple(g for i, g in enumerate(generators) if i in broken)
    return SoundnessVerdict(not (missing or extra or unpreserved), tuple(missing),
                            tuple(base), keep, extra, unpreserved)
