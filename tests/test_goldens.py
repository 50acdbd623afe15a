"""Byte goldens: break, detect and graph-dump output on fixed programs.

Each file under ``goldens/`` holds, for one input program, the augmented
program as ``write_program`` prints it, the detected generators as
``--mode detect`` prints them, and ``dump_graph`` of the program's
encoding.  Refactors that must not change behaviour are checked against
these bytes.  Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_goldens.py
"""

import random
from pathlib import Path

import pytest

from symbreak import break_program, detect_symmetries, encode_program, write_program
from symbreak.cli import format_generator
from symbreak.encoding import dump_graph
from programs import free_choice, p1, p2, p3, p4, p5, pigeonhole, random_program

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

CASES = {
    "p1": p1, "p2": p2, "p3": p3, "p4": p4, "p5": p5,
    "php4x3": lambda: pigeonhole(4, 3),
    "php5x4": lambda: pigeonhole(5, 4),
    "php6x5": lambda: pigeonhole(6, 5),
    "free_choice8": lambda: free_choice(range(1, 9)),
    # compute blocks and no reserved false atom: the constraint head is fresh
    "free_choice8_bplus": lambda: free_choice(range(1, 9))._replace(compute_plus=(1,)),
    "free_choice8_bminus": lambda: free_choice(range(1, 9))._replace(compute_minus=(8,)),
}
CASES.update({f"random{i:02d}": (lambda i=i: random_program(random.Random(i)))
              for i in range(50)})


def render(program) -> str:
    detection = detect_symmetries(program)
    return "".join([
        "== break\n", write_program(break_program(program).program),
        "== detect\n", *(format_generator(g, program) + "\n"
                         for g in detection.generators),
        "== graph\n", dump_graph(encode_program(program)),
    ])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert render(CASES[name]()) == expected


def test_goldens_cover_every_rule_type():
    """Wire rule types, B-, minimize and hidden atoms all appear."""
    kinds = set()
    for build in CASES.values():
        program = build()
        for line in write_program(program).splitlines():
            if line == "0":  # end of the rules section
                break
            kinds.add(line.split()[0])
        if program.compute_minus:
            kinds.add("B-")
        if any(program.name_of(a).startswith("_")
               for a in range(1, program.max_atom + 1)):
            kinds.add("hidden")
    assert kinds == {"1", "2", "3", "5", "6", "8", "B-", "hidden"}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render(build()), encoding="utf-8")
