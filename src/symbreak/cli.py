"""Command line front end.

Reads an smodels program from a file or standard input, detects syntactic
symmetries, and writes the program with breaking constraints appended to
standard output (or a file), so the tool drops into a
``grounder | symbreak | solver`` pipe unchanged.  Diagnostics and
statistics go to standard error, never the output stream.

Exit codes: 0 ok, 1 parse or validation failure, 2 usage error or budget
exceeded in verify mode, 3 I/O failure, 4 verification found a violation.
"""

import argparse
import sys
import time

from .encoding import dump_graph, encode_program
from .pipeline import BreakConfig, BreakResult, break_program, detect_symmetries
from .smodels import GroundProgram, ParseError, parse_program, write_program
from .symmetry import AtomPermutation


def emit_stats(program: GroundProgram, result: BreakResult, seconds: float) -> str:
    """The ``--stats`` lines of a run that took ``seconds`` to break
    ``program`` into ``result``."""
    lines = [
        f"generators={len(result.detection.generators)}",
        f"rules={len(result.program.rules) - len(program.rules)}",
        f"aux={result.program.max_atom - program.max_atom}",
        f"seconds={seconds:.3f}",
        f"rows={len(result.rows)}",
        f"binpairs={len(result.pairs)}",
    ]
    return "\n".join(lines) + "\n"


def format_generator(perm: AtomPermutation, program: GroundProgram) -> str:
    """Cycle notation over atom names; hidden atoms print as _<index>.
    Only non-identity permutations reach it: detection drops the others."""
    return "".join(
        "(" + " ".join(program.name_of(a) for a in cycle) + ")"
        for cycle in perm.cycles()
    )


def _count(text: str) -> int:
    """Argument type of the options that take a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    defaults = BreakConfig()
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Append symmetry breaking constraints to a ground "
                    "answer set program in the lparse-smodels format.")
    parser.add_argument("input", nargs="?", default="-",
                        help="input file, or - for standard input (default)")
    parser.add_argument("-o", dest="output", default="-", metavar="PATH",
                        help="output file, or - for standard output (default)")
    parser.add_argument("--mode", choices=("break", "detect", "verify"),
                        default="break",
                        help="break: write the augmented program; detect: only "
                             "print generators; verify: oracle-check the "
                             "pipeline on a small input")
    parser.add_argument("--limit", type=_count, default=defaults.aux_limit, metavar="N",
                        help="auxiliary atoms allowed per symmetry (default %(default)s)")
    parser.add_argument("--budget", type=_count, default=defaults.search_budget,
                        metavar="N", help="automorphism search tree node budget")
    parser.add_argument("--stab-levels", type=_count, default=defaults.stabilizer_levels,
                        metavar="N", help="binary clause levels: base atoms paired "
                                          "with their orbits; 0 turns binary "
                                          "clauses off (default %(default)s)")
    parser.add_argument("--no-rows", action="store_true",
                        help="disable row-interchangeability detection")
    parser.add_argument("--stats", action="store_true",
                        help="print statistics on standard error")
    parser.add_argument("--dump-graph", action="store_true",
                        help="dump the colored graph on standard error")
    return parser


def _read_input(path: str):
    """The raw input; parse_program decodes it."""
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_output(path: str, text: str):
    """Write UTF-8 bytes, the input's encoding, whatever the locale's."""
    data = text.encode()
    if path == "-":
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            stream.write(data)
            stream.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(data)


def _print_violations(violations) -> int:
    """Print each violation; the exit status 4 if there is one, else 0."""
    for v in violations:
        print(f"symbreak: VIOLATION: {v}", file=sys.stderr)
    return 4 if violations else 0


def _verify(program: GroundProgram, result: BreakResult) -> int:
    """Print ``oracle.check_soundness``'s verdict on the break of ``program``
    into ``result``: new answer sets, lost orbits and generators that move
    answer sets.  Return the exit status.  A search permutation that failed
    the gate is a detection bug whatever the budgets, so it sets status 4
    even when a budget stops the check."""
    from .oracle import OracleBudgetError, check_soundness  # verify alone needs it

    violations = [f"automorphism {format_generator(perm, program)} failed the "
                  "syntactic symmetry check" for perm in result.detection.rejected]
    if not result.detection.search.complete:
        print("symbreak: search budget exceeded", file=sys.stderr)
        return _print_violations(violations) or 2
    try:
        verdict = check_soundness(program, result.detection.generators,
                                  result.program)
    except OracleBudgetError as exc:
        print(f"symbreak: {exc}", file=sys.stderr)
        return _print_violations(violations) or 2
    if verdict.extra:
        violations.append("augmented program admits a non-answer-set")
    if verdict.missing:
        violations.append(f"{len(verdict.missing)} orbit(s) lost every representative")
    violations.extend(f"generator {format_generator(g, program)} does not preserve "
                      "the answer sets" for g in verdict.unpreserved)
    print(f"symbreak: answer sets {len(verdict.original)} -> {len(verdict.surviving)}"
          + ("" if verdict.original or verdict.surviving else " (unsat preserved)"),
          file=sys.stderr)
    if _print_violations(violations):
        return 4
    print("symbreak: verification passed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = BreakConfig(
        aux_limit=args.limit,
        search_budget=args.budget,
        stabilizer_levels=args.stab_levels,
        row_detection=not args.no_rows,
    )
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"symbreak: cannot read input: {exc}", file=sys.stderr)
        return 3
    try:
        program = parse_program(text)
    except ParseError as exc:
        print(f"symbreak: parse error: {exc}", file=sys.stderr)
        return 1
    if program.problems:
        for p in program.problems:
            print(f"symbreak: invalid program: {p}", file=sys.stderr)
        return 1

    if args.mode == "detect":
        detection = detect_symmetries(program, config)
        out = "".join(format_generator(g, program) + "\n"
                      for g in detection.generators)
        stats = f"generators={len(detection.generators)}\n"
        incomplete = "generator list may be incomplete"
    else:
        started = time.perf_counter()
        result = break_program(program, config)
        seconds = time.perf_counter() - started
        detection = result.detection
        out = write_program(result.program) if args.mode == "break" else ""
        stats = emit_stats(program, result, seconds)
        incomplete = "breaking may be incomplete"

    if args.dump_graph:
        sys.stderr.write(dump_graph(encode_program(program)))
    if args.mode == "verify":
        status = _verify(program, result)
        if args.stats:
            sys.stderr.write(stats)
        return status
    if not detection.search.complete:
        print(f"symbreak: warning: search budget exceeded, {incomplete}",
              file=sys.stderr)
    try:
        _write_output(args.output, out)
    except OSError as exc:
        print(f"symbreak: cannot write output: {exc}", file=sys.stderr)
        return 3
    if args.stats:
        sys.stderr.write(stats)
    return 0


def run():
    sys.exit(main())
