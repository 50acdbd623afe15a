"""Digest of everything an output-preserving change must keep.

For each program it hashes the bytes ``write_program`` prints for the
broken program, the binary pairs of ``break_program``, ``dump_graph`` of
the encoding, what ``find_generators`` returns (generators, tree nodes,
completeness) under budgets 1, 2, 5, 17 and 10**6, and the answer sets
``answer_sets`` finds at budget 14 for the program and for its break,
with ``over-budget`` standing for a call that raises
``OracleBudgetError``.  The programs are ``corpus()``, the benchmark's
workload instances for seeds 1 to 4, pigeonhole p×h for h ≤ p ≤ 7,
S2..S40 (``free_choice`` of 2 to 40 atoms), and the independent-set
programs of the rook's graph beside the Shrikhande graph and of two
Frucht graphs, whose searches prune off the first path.

It prints one line per program, the short hashes of its break, graph,
search and oracle output, and a final total, so a ``diff`` of two runs
names the programs whose output moved.  The search has two fields:
``gens=`` hashes the generators and completeness at budget 10**6, and
``tree=`` the tree nodes at every budget with the generators and
completeness at the smaller ones.  A change to the shape of the search
tree that keeps the full-budget generators moves ``tree=`` only.  Both
render each generator, which the search keeps as the map of the nodes it
moves, as its dense image tuple over the graph's nodes, the form the
search returned when the committed lines were made, so those lines hold
without being regenerated.
``tests/output_digest.txt`` is the output of the committed tree, and CI
diffs a run under each of two string-hash seeds against it:

    PYTHONPATH=src:tests python tests/output_digest.py | diff tests/output_digest.txt -

A change allowed to move output regenerates that file, in a commit of its
own that says which lines moved and why:

    PYTHONPATH=src:tests python tests/output_digest.py > tests/output_digest.txt

To compare with another tree, run it with that tree's ``src`` first on
``PYTHONPATH``.  The program builders are imported from this file's own
directory first, so both runs digest the same inputs.  A tree whose
search returns dense tuples is digested with its own copy of this file;
its lines compare with this one's all the same.
"""

import hashlib

from symbreak import (OracleBudgetError, answer_sets, break_program, encode_program,
                      find_generators, write_program)
from symbreak.encoding import dump_graph
from graph_oracles import dense
from programs import (corpus, free_choice, independent_sets, pigeonhole,
                      rook_and_shrikhande_edges, two_frucht_edges, workload_instances)

BUDGETS = (1, 2, 5, 17, 10 ** 6)
ORACLE_BUDGET = 14


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
    yield "rook_shrikhande", independent_sets(32, rook_and_shrikhande_edges())
    yield "two_frucht", independent_sets(24, two_frucht_edges())


def short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def oracle_output(program) -> str:
    try:
        return repr([sorted(s) for s in answer_sets(program, ORACLE_BUDGET)])
    except OracleBudgetError:
        return "over-budget"


def digest_line(label: str, program) -> str:
    result = break_program(program)
    broken = short(write_program(result.program) + repr(result.pairs))
    graph = encode_program(program)
    *cut, full = [find_generators(graph, budget) for budget in BUDGETS]

    def generators(search):
        return tuple(dense(g, graph.n_nodes) for g in search.generators)

    gens = short(repr((generators(full), full.complete)))
    tree = short(repr([(generators(s), s.tree_nodes, s.complete) for s in cut]
                      + [full.tree_nodes]))
    oracle = short(oracle_output(program) + " " + oracle_output(result.program))
    return (f"{label} break={broken} graph={short(dump_graph(graph))} gens={gens}"
            f" tree={tree} oracle={oracle}")


def main():
    total = hashlib.sha256()
    for label, program in programs():
        line = digest_line(label, program)
        print(line)
        total.update(line.encode() + b"\n")
    print(f"total={total.hexdigest()}")


if __name__ == "__main__":
    main()
