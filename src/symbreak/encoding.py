"""Colored-graph encoding whose automorphisms are the program's syntactic
symmetries.

Every atom the program's view mentions contributes a positive node
(color 1) and a negative node (color 2) joined by an edge, so any
automorphism maps literals consistently; an atom no rule mentions is
false in every answer set and gets no node.  Every rule contributes a
head node and a body node wired to the literals it mentions; choice
heads, minimize statements, bounds and weights get their own colors so
that structurally different rules can never be exchanged.  The graph is
undirected throughout.

The reserved false atom is not represented: rules it heads (integrity
constraints) keep their head node but get no head-literal edge, which both
pins the false atom trivially and lets constraints only map onto other
constraints.

A binary constraint ``<- a, b`` or ``<- not a, not b`` is instead one edge
between its two positive (or two negative) literal nodes, as Aloul,
Ramani, Markov & Sakallah draw a binary clause ("Solving difficult SAT
instances in the presence of symmetry", DAC 2002).  Between literal
nodes, only an atom's own pairing joins the two colors and only these
edges join one color, so an automorphism maps them onto each other.
Three kinds keep their rule nodes: a pos-neg pair, whose edge could map
onto an atom's own pairing; a one-atom body such as ``<- a, a``; and a
constraint that occurs more than once, since the gate counts copies and
an edge cannot.

Rule nodes are numbered in the order of the sorted rules, not of the
input's lines, which carry no meaning.  So the graph depends on the rules
alone, and rule nodes of one shape ascend as their atoms do: the
search's positional early map, which maps each cell onto another position
by position, then meets rule nodes in the order a symmetry of the atoms
maps them, however the lines were shuffled.
"""

from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .smodels import BASIC, CHOICE, MINIMIZE, WEIGHT, GroundProgram

ATOM_COLOR = 1
NEGATION_COLOR = 2
HEAD_COLOR = 3
BODY_COLOR = 4
CHOICE_HEAD_COLOR = 5
MINIMIZE_COLOR = 6
FIRST_VALUE_COLOR = 7


class ColoredGraph(NamedTuple("ColoredGraph", [
        ("colors", tuple[int, ...]), ("neighbors", tuple[tuple[int, ...], ...]),
        ("atoms", tuple[int, ...])])):
    """Undirected graph with integer node colors.

    Nodes are dense 0-based ids.  When built from a program, ``atoms``
    is its view's ``atoms``, those its rules mention, in node order:
    atom ``atoms[i]`` owns the positive node ``2*i`` and the negative
    node ``2*i + 1``.  Rule nodes follow in the order of the sorted
    rules, not of the lines, so rule nodes of one shape ascend as their
    atoms do (the module docstring says why); binary constraints drawn as
    literal edges have none, and those written more than once come last.
    Every node's ``neighbors`` tuple strictly ascends, so two nodes have
    the same neighbors exactly when their tuples are equal.
    """

    def __new__(cls, colors, neighbors, atoms=()):
        return super().__new__(cls, colors, neighbors, atoms)

    @property
    def n_nodes(self) -> int:
        return len(self.colors)

    def node_atom(self, node: int) -> int:
        """The atom owning a literal node (positive or negative)."""
        if node >= 2 * len(self.atoms):
            raise ValueError(f"node {node} is not a literal node")
        return self.atoms[node // 2]

    def edges(self):
        for u, ns in enumerate(self.neighbors):
            for v in ns:
                if u < v:
                    yield u, v


def encode_program(program: GroundProgram) -> ColoredGraph:
    """Encode a validated program (compute blocks become constraints)."""
    sem = program.view
    atoms = sem.atoms
    false = sem.false_atom
    # rule nodes follow the sorted rules (the module docstring says why).
    # The sort never compares None with an int: a rule's bound is compared
    # only after its kind, and the encoder takes only validated programs,
    # whose rules of one kind all have a bound or none do
    rules = sorted(sem.rules)
    # node[a] is atom a's positive node; its negative node is node[a] + 1
    node = {a: 2 * i for i, a in enumerate(atoms)}
    colors = [ATOM_COLOR, NEGATION_COLOR] * len(atoms)
    nbrs = [[i ^ 1] for i in range(len(colors))]

    values = set(map(itemgetter(4), sem.rules))
    values.discard(None)
    values.update(chain.from_iterable(map(itemgetter(5), sem.rules)))
    value_color = {v: FIRST_VALUE_COLOR + i for i, v in enumerate(sorted(values))}

    # a literal node's list ascends, as rule nodes are numbered in the
    # order of ``rules``; a rule node joins it once, however often the atom
    # repeats in the rule.  A rule node's tuple is made when its rule is done.
    # pairs counts the binary constraints by their two literal nodes
    pairs = {}
    for kind, heads, pos, neg, bound, weights in rules:
        if kind == BASIC and heads[0] == false:
            if len(pos) == 2 and not neg:
                u, v = node[pos[0]], node[pos[1]]
            elif len(neg) == 2 and not pos:
                u, v = node[neg[0]] + 1, node[neg[1]] + 1
            else:
                u = v = None
            if u != v:
                pair = (u, v) if u < v else (v, u)
                pairs[pair] = pairs.get(pair, 0) + 1
                continue
        bn = len(colors)
        if kind == MINIMIZE:
            colors.append(MINIMIZE_COLOR)
            nbrs.append(None)
            body = []
        else:
            hn = bn
            bn += 1
            colors.append(CHOICE_HEAD_COLOR if kind == CHOICE else HEAD_COLOR)
            colors.append(BODY_COLOR if bound is None else value_color[bound])
            if len(heads) != 1:
                # choice and disjunctive heads, never the false atom
                head = [node[h] for h in heads]
                for u in head:
                    ns = nbrs[u]
                    if ns[-1] != hn:
                        ns.append(hn)
                nbrs.append((*sorted(set(head)), bn))
            elif heads[0] == false:
                nbrs.append((bn,))
            else:
                u = node[heads[0]]  # below every rule node
                nbrs[u].append(hn)
                nbrs.append((u, bn))
            nbrs.append(None)
            body = [hn]
        if kind in (WEIGHT, MINIMIZE):
            # one node per literal and weight, neg-then-pos as the weights
            # run; the body node's list ascends, as these are numbered
            # after the head node
            lits = [node[b] + 1 for b in neg] + [node[a] for a in pos]
            for u, w in zip(lits, weights):
                tn = len(colors)
                colors.append(value_color[w])
                nbrs.append((u, bn))
                nbrs[u].append(tn)
                body.append(tn)
            nbrs[bn] = tuple(body)
        else:
            for a in pos:
                u = node[a]
                body.append(u)
                ns = nbrs[u]
                if ns[-1] != bn:
                    ns.append(bn)
            for b in neg:
                u = node[b] + 1
                body.append(u)
                ns = nbrs[u]
                if ns[-1] != bn:
                    ns.append(bn)
            nbrs[bn] = tuple(sorted(set(body)))

    # a pair seen once is an edge; a repeated one keeps its rule nodes, as
    # an edge cannot count its copies.  Those nodes come last, so only the
    # lists that took an edge need sorting
    edged = set()
    for (u, v), n in pairs.items():
        if n == 1:
            nbrs[u].append(v)
            nbrs[v].append(u)
            edged.add(u)
            edged.add(v)
            continue
        for _ in range(n):
            hn = len(colors)
            colors += (HEAD_COLOR, BODY_COLOR)
            nbrs.append((hn + 1,))
            nbrs.append((u, v, hn))
            nbrs[u].append(hn + 1)
            nbrs[v].append(hn + 1)
    for u in edged:
        nbrs[u].sort()

    # in place, so that no list outlives its tuple
    for u in range(2 * len(atoms)):
        nbrs[u] = tuple(nbrs[u])
    return ColoredGraph(tuple(colors), tuple(nbrs), atoms)


def fix_nodes(graph: ColoredGraph, fixed) -> ColoredGraph:
    """Recolor each listed node with a fresh color.

    The automorphisms of the result are exactly the automorphisms of the
    input fixing every listed node pointwise.
    """
    fixed = list(fixed)
    if not fixed:
        return graph
    colors = list(graph.colors)
    fresh = max(colors) + 1
    for i, node in enumerate(fixed):
        colors[node] = fresh + i
    return graph._replace(colors=tuple(colors))


def dump_graph(graph: ColoredGraph) -> str:
    """Line-based debug dump: one ``node id color`` and ``edge u v`` per line."""
    out = [f"node {v} {c}" for v, c in enumerate(graph.colors)]
    out.extend(f"edge {u} {v}" for u, v in graph.edges())
    return "\n".join(out) + ("\n" if out else "")
