"""Digest of everything an output-preserving change must keep.

For each program it hashes the bytes ``write_program`` prints for the
broken program, the binary pairs of ``break_program``, ``dump_graph`` of
the encoding, and what ``find_generators`` returns (generators, tree
nodes, completeness) under budgets 1, 2, 5, 17 and 10**6.  The
programs are ``corpus()``, the benchmark's workload instances for seeds
1 to 4, pigeonhole p×h for h ≤ p ≤ 7, and S2..S40 (``free_choice`` of
2 to 40 atoms).

It prints one line per program, the short hashes of its break, graph and
search output, and a final total, so a ``diff`` of two runs names the
programs whose output moved.  Compare two trees with

    PYTHONPATH=<parent>/src:<parent>/tests python tests/output_digest.py > parent.txt
    PYTHONPATH=src:tests python tests/output_digest.py > change.txt
    diff parent.txt change.txt

The program builders are imported from this file's own directory first,
so both runs digest the same inputs; ``PYTHONPATH`` picks the package.
"""

import hashlib

from symbreak import break_program, encode_program, find_generators, write_program
from symbreak.encoding import dump_graph
from programs import corpus, free_choice, pigeonhole, workload_instances

BUDGETS = (1, 2, 5, 17, 10 ** 6)


def programs():
    """(label, program) for every program digested, in a fixed order."""
    for i, program in enumerate(corpus()):
        yield f"corpus{i:03d}", program
    for i, program in enumerate(workload_instances(range(1, 5))):
        yield f"workload{i:02d}", program
    for p in range(1, 8):
        for h in range(1, p + 1):
            yield f"php{p}x{h}", pigeonhole(p, h)
    for k in range(2, 41):
        yield f"S{k}", free_choice(range(1, k + 1))


def short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_line(label: str, program) -> str:
    result = break_program(program)
    broken = short(write_program(result.program) + repr(result.pairs))
    graph = encode_program(program)
    searches = [find_generators(graph, budget) for budget in BUDGETS]
    search = short(repr([(s.generators, s.tree_nodes, s.complete)
                         for s in searches]))
    return f"{label} break={broken} graph={short(dump_graph(graph))} search={search}"


def main():
    total = hashlib.sha256()
    for label, program in programs():
        line = digest_line(label, program)
        print(line)
        total.update(line.encode() + b"\n")
    print(f"total={total.hexdigest()}")


if __name__ == "__main__":
    main()
