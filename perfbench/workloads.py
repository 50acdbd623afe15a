"""Benchmark inputs: one instance and one oracle probe set per workload.

Everything is smodels text built from a seed, so the program under test
sees only its wire format.  The same seed gives byte-identical text.
``php`` and ``free-choice`` are relabelled by the seed: atoms are renamed
along the instance's own structure and the rule lines are shuffled, so each
seed gives an isomorphic program under another numbering.  The
``asym-large`` instance is drawn afresh from the seed.
"""

import random
from typing import NamedTuple

from symbreak import write_program

from programs import free_choice, pigeonhole, random_program

WORKLOADS = ("php", "free-choice", "asym-large")

# answer_sets enumerates at most 2^budget candidates per program
PROBE_BUDGET = 16


class Workload(NamedTuple):
    """The timed instance and the probe programs checked by the oracle."""

    instance: str
    probes: list[str]


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if name == "php":
        return Workload(pigeonhole_text(6, 5, rng),
                        [pigeonhole_text(4, 4, rng), pigeonhole_text(4, 3, rng)])
    if name == "free-choice":
        return Workload(free_choice_text(16, rng), [free_choice_text(8, rng)])
    if name == "asym-large":
        # the probes are the same for every seed: the draws differ too much
        # in size for sums over them to compare across seeds
        probes = random.Random("asym-large/probes")
        return Workload(asym_large_text(3000, 9000, rng),
                        [write_program(random_program(probes)) for _ in range(200)])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def pigeonhole_text(pigeons: int, holes: int, rng: random.Random) -> str:
    """Pigeonhole with pigeons and holes shuffled, laid out row- or column-major.

    Atom 1 stays the reserved false atom.  A numbering that ignores the
    matrix structure is not used: on it the current search and row
    detection lose the pigeonhole structure, and 8x7 takes minutes.
    """
    by_pigeon = rng.sample(range(pigeons), pigeons)
    by_hole = rng.sample(range(holes), holes)
    column_major = rng.random() < 0.5
    mapping = {}
    for p in range(pigeons):
        for h in range(holes):
            sp, sh = by_pigeon[p], by_hole[h]
            cell = sh * pigeons + sp if column_major else sp * holes + sh
            mapping[2 + p * holes + h] = 2 + cell
    return relabel(write_program(pigeonhole(pigeons, holes)), mapping, rng)


def free_choice_text(atoms: int, rng: random.Random) -> str:
    """``atoms`` singleton choice rules, atoms renamed by a seeded shuffle."""
    names = list(range(1, atoms + 1))
    mapping = dict(zip(names, rng.sample(names, atoms)))
    return relabel(write_program(free_choice(names)), mapping, rng)


def asym_large_text(atoms: int, rules: int, rng: random.Random) -> str:
    """A random program with basic, constraint, cardinality and weight rules.

    Atom 1 is the reserved false atom.  Every other atom heads rules
    round-robin and sits in a few random bodies, so no two atoms play the
    same role and the program has no syntactic symmetry.
    """
    pool = list(range(2, atoms + 2))
    heads = []
    lines = []
    seen = set()
    while len(lines) < rules:
        kind = rng.choices(("basic", "constraint", "card", "weight"),
                           (45, 15, 20, 20))[0]
        body = rng.sample(pool, rng.randint(1, 5))
        neg = [a for a in body if rng.random() < 0.3]
        pos = [a for a in body if a not in neg]
        lits = [len(body), len(neg), *neg, *pos]
        if kind == "constraint":
            head = 1
        else:
            if not heads:
                heads = rng.sample(pool, len(pool))
            head = heads.pop()
        if kind in ("basic", "constraint"):
            parts = [1, head, *lits]
        elif kind == "card":
            parts = [2, head, len(body), len(neg), rng.randint(1, len(body)),
                     *neg, *pos]
        else:
            weights = [rng.randint(1, 5) for _ in body]
            parts = [5, head, rng.randint(1, sum(weights)), *lits, *weights]
        line = " ".join(map(str, parts))
        if line not in seen:  # a repeated rule would be a symmetry
            seen.add(line)
            lines.append(line)
    lines.append("0")
    lines.extend(f"{a} x{a}" for a in pool if rng.random() < 0.8)
    lines.extend(["0", "B+", "0", "B-", "1", "0", "1"])
    return "\n".join(lines) + "\n"


def relabel(text: str, mapping: dict[int, int], rng: random.Random) -> str:
    """Rename atoms of smodels text by ``mapping`` and shuffle its rule lines.

    Atoms missing from ``mapping`` keep their index.  The result is the
    same program up to the renaming, so every count that does not depend
    on atom indices or rule order is unchanged.
    """
    def atom(a):
        return mapping.get(a, a)

    lines = text.splitlines()
    end = lines.index("0")
    rules = [_relabel_rule([int(t) for t in line.split()], atom)
             for line in lines[:end]]
    rng.shuffle(rules)
    out = [" ".join(map(str, r)) for r in rules]
    section = 0
    for line in lines[end:]:
        if line in ("0", "B+", "B-"):
            section += line == "0"
        elif section == 1:
            index, name = line.split(" ", 1)
            line = f"{atom(int(index))} {name}"
        elif section in (2, 3):
            line = str(atom(int(line)))
        out.append(line)
    return "\n".join(out) + "\n"


def _relabel_rule(tokens: list[int], atom) -> list[int]:
    kind = tokens[0]
    if kind in (3, 8):  # choice and disjunctive: head count, heads, body
        k = tokens[1]
        atom_at = [*range(2, 2 + k), *range(4 + k, len(tokens))]
    elif kind == 1:
        atom_at = [1, *range(4, len(tokens))]
    elif kind == 2:
        atom_at = [1, *range(5, len(tokens))]
    elif kind == 5:
        atom_at = [1, *range(5, 5 + tokens[3])]
    elif kind == 6:
        atom_at = range(4, 4 + tokens[2])
    else:
        raise ValueError(f"unknown rule type {kind}")
    out = list(tokens)
    for i in atom_at:
        out[i] = atom(out[i])
    return out
