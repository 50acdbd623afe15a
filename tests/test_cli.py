"""Command line behavior: modes, streams, exit codes."""

import io
import os
import subprocess
import sys
import textwrap

import pytest

import symbreak
from symbreak import BasicRule, BreakConfig, break_program, parse_program, write_program
from symbreak.cli import build_parser, main
from symbreak.encoding import dump_graph, encode_program
from symbreak.symmetry import AtomPermutation
from programs import free_choice, normalize_text, p1, p3, pigeonhole, wide_cardinality


P1_TEXT = write_program(p1())
P3_TEXT = write_program(p3())


def run_cli(args, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_break_p1_via_stdin(monkeypatch, capsys):
    code, out, err = run_cli(["--stats"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    augmented = parse_program(out)
    assert len(augmented.rules) == 3  # two choices plus one constraint
    assert "generators=1" in err
    assert "rules=1" in err
    assert "binpairs=1" in err


def test_break_writes_files(tmp_path, monkeypatch, capsys):
    src = tmp_path / "in.lp"
    dst = tmp_path / "out.lp"
    src.write_text(P1_TEXT, encoding="utf-8")
    code = main([str(src), "-o", str(dst)])
    assert code == 0
    assert len(parse_program(dst.read_text(encoding="utf-8")).rules) == 3
    assert capsys.readouterr().out == ""


def test_unwritable_output_exit_code(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "out.lp"  # its directory does not exist
    code, out, err = run_cli(["-o", str(target)], P1_TEXT, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("symbreak: cannot write output: ")
    assert not target.parent.exists()


def test_output_to_a_stdout_without_a_byte_buffer(monkeypatch):
    """A ``sys.stdout`` with no ``buffer``, such as an ``io.StringIO``, is
    written the text itself."""
    out = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(P1_TEXT))
    monkeypatch.setattr("sys.stdout", out)
    assert main([]) == 0
    assert out.getvalue() == write_program(break_program(parse_program(P1_TEXT)).program)


def test_detect_mode_p3(monkeypatch, capsys):
    code, out, err = run_cli(["--mode", "detect"], P3_TEXT, monkeypatch, capsys)
    assert code == 0
    assert out == "(p q)\n"


def test_detect_mode_hidden_atoms(monkeypatch, capsys):
    text = "3 1 1 0 0\n3 1 2 0 0\n0\n0\nB+\n0\nB-\n0\n1\n"
    code, out, err = run_cli(["--mode", "detect"], text, monkeypatch, capsys)
    assert code == 0
    assert out == "(_1 _2)\n"


def test_symmetry_free_break_echoes_input(monkeypatch, capsys):
    text = "1 1 0 0\n1 2 1 0 1\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n"
    code, out, err = run_cli(["--stats"], text, monkeypatch, capsys)
    assert code == 0
    assert out == normalize_text(text)
    assert "generators=0" in err and "rules=0" in err and "aux=0" in err


def test_stats_go_to_stderr_not_stdout(monkeypatch, capsys):
    code, out, err = run_cli(["--stats"], P1_TEXT, monkeypatch, capsys)
    parse_program(out)  # output stream stays a clean program
    for key in ("generators=", "rules=", "aux=", "seconds=", "rows=", "binpairs="):
        assert key in err


def test_parse_error_exit_code(monkeypatch, capsys):
    code, out, err = run_cli([], "1 2 oops\n", monkeypatch, capsys)
    assert code == 1
    assert "parse error" in err
    assert out == ""


def test_non_utf8_input_is_a_parse_error(tmp_path, monkeypatch, capsys):
    data = b"1 1 0 0\n\xb2\n0\n0\nB+\n0\nB-\n0\n1\n"
    source = tmp_path / "bad.lp"
    source.write_bytes(data)
    assert main([str(source)]) == 1
    from_file = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main([]) == 1
    from_stdin = capsys.readouterr()
    for captured in (from_file, from_stdin):
        assert captured.out == ""
        assert captured.err == ("symbreak: parse error: line 2: "
                                "byte 0xb2 is not valid UTF-8\n")


def test_invalid_program_exit_code(monkeypatch, capsys):
    text = "3 0 0 0\n0\n0\nB+\n0\nB-\n0\n1\n"  # choice rule without heads
    code, out, err = run_cli([], text, monkeypatch, capsys)
    assert code == 1
    assert "invalid program" in err


@pytest.mark.parametrize("rule", ["3 0 0 0", "8 0 0 0"], ids=["choice", "disjunctive"])
def test_empty_head_list_is_the_one_diagnostic(rule, monkeypatch, capsys):
    """The one rule fault the decoder lets through is reported as
    ``validate`` words it, and nothing else is printed."""
    code, out, err = run_cli([], f"{rule}\n0\n0\nB+\n0\nB-\n0\n1\n", monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert err == "symbreak: invalid program: rule 1: head list must not be empty\n"


def test_missing_input_file_exit_code(capsys):
    code = main(["/nonexistent/input.lp"])
    assert code == 3
    assert "cannot read input" in capsys.readouterr().err


def test_flags_accepted(monkeypatch, capsys):
    code, out, _ = run_cli(["--limit", "3", "--no-rows", "--budget", "1000",
                            "--stab-levels", "2"],
                           P1_TEXT, monkeypatch, capsys)
    assert code == 0
    parse_program(out)


def test_dump_graph_flag(monkeypatch, capsys):
    code, out, err = run_cli(["--dump-graph"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    assert "node 0 1" in err
    assert "edge" in err


def test_stats_report_row_matrices(monkeypatch, capsys):
    text = write_program(pigeonhole(3, 2))
    code, out, err = run_cli(["--stats"], text, monkeypatch, capsys)
    assert code == 0
    rows = next(line for line in err.splitlines() if line.startswith("rows="))
    assert int(rows.split("=")[1]) >= 1


def stats_of(err: str) -> dict[str, str]:
    """The ``key=value`` lines of a ``--stats`` report, in report order."""
    return dict(line.split("=", 1) for line in err.splitlines() if "=" in line)


def test_stats_lines_match_the_result(monkeypatch, capsys):
    for program in (pigeonhole(3, 3), p1()):
        code, out, err = run_cli(["--stats"], write_program(program),
                                 monkeypatch, capsys)
        assert code == 0
        result = break_program(program)
        stats = stats_of(err)
        assert list(stats) == ["generators", "rules", "aux", "seconds",
                               "rows", "binpairs"]
        assert int(stats["generators"]) == len(result.detection.generators)
        assert int(stats["rules"]) == len(result.program.rules) - len(program.rules)
        assert int(stats["aux"]) == result.program.max_atom - program.max_atom
        assert int(stats["rows"]) == len(result.rows)
        assert int(stats["binpairs"]) == len(result.pairs)
        assert float(stats["seconds"]) >= 0.0
        assert out == write_program(result.program)


def test_stab_levels_zero_turns_binary_clauses_off(monkeypatch, capsys):
    text = write_program(pigeonhole(3, 2))
    code, out, err = run_cli(["--stats", "--stab-levels", "0"], text,
                             monkeypatch, capsys)
    assert code == 0
    assert stats_of(err)["binpairs"] == "0"
    code, out, err = run_cli(["--stats"], text, monkeypatch, capsys)
    assert code == 0
    assert int(stats_of(err)["binpairs"]) > 0
    with pytest.raises(SystemExit) as exc:
        main(["--no-binary"])
    assert exc.value.code == 2


def test_break_warns_when_search_budget_exceeded(monkeypatch, capsys):
    code, out, err = run_cli(["--budget", "2"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    assert "warning" in err and "budget" in err
    parse_program(out)


def test_deep_search_stops_at_the_budget(monkeypatch, capsys):
    """The first path of the search is about 1,100 nodes deep."""
    text = write_program(free_choice(range(1, 1101)))
    code, out, err = run_cli(["--budget", "1500"], text, monkeypatch, capsys)
    assert code == 0
    assert "warning" in err and "budget" in err
    assert len(parse_program(out).rules) > 1100


def test_overlong_integer_exit_code(monkeypatch, capsys):
    code, out, err = run_cli([], "1 2 1 0 " + "9" * 5000 + "\n0\n0\nB+\n0\nB-\n0\n1\n",
                             monkeypatch, capsys)
    assert code == 1
    assert err == "symbreak: parse error: line 1: integer of 5000 digits is too long\n"
    assert out == ""


@pytest.mark.parametrize("text", [
    "1 2 1 0 1\n3 1 1 0 0\n0\n1 _false\n0\nB+\n0\nB-\n0\n1\n",
    "1 2 1 0 1\n1 3 1 0 1\n3 1 1 0 0\n0\n1 _false\n0\nB+\n0\nB-\n0\n1\n",
], ids=["body", "body-symmetric"])
def test_false_name_used_in_a_body(text, monkeypatch, capsys):
    rules = parse_program(text).rules
    code, out, _ = run_cli([], text, monkeypatch, capsys)
    assert code == 0
    assert parse_program(out).rules[:len(rules)] == rules
    code, _, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 0
    assert "verification passed" in err


@pytest.mark.parametrize("option", ["--limit", "--budget", "--stab-levels"])
def test_count_options_reject_negative_values(option, monkeypatch, capsys):
    for bad in ("-1", "1.5"):
        with pytest.raises(SystemExit) as exc:
            run_cli([option, bad], P1_TEXT, monkeypatch, capsys)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and option in err
    code, out, err = run_cli([option, "0"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    parse_program(out)


def test_verify_p1(monkeypatch, capsys):
    code, out, err = run_cli(["--mode", "verify"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    assert "verification passed" in err


def test_verify_prints_the_stats_of_the_break_it_checks(monkeypatch, capsys):
    program = pigeonhole(3, 2)
    code, out, err = run_cli(["--mode", "verify", "--stats"], write_program(program),
                             monkeypatch, capsys)
    assert code == 0 and out == ""
    result = break_program(program)
    lines = err.splitlines()
    assert lines[:2] == ["symbreak: answer sets 0 -> 0 (unsat preserved)",
                         "symbreak: verification passed"]
    stats = stats_of(err)
    assert list(stats) == ["generators", "rules", "aux", "seconds", "rows", "binpairs"]
    assert int(stats["generators"]) == len(result.detection.generators)
    assert int(stats["rules"]) == len(result.program.rules) - len(program.rules)
    assert int(stats["aux"]) == result.program.max_atom - program.max_atom
    assert int(stats["rows"]) == len(result.rows) == 1
    assert int(stats["binpairs"]) == len(result.pairs)
    assert float(stats["seconds"]) >= 0.0


def test_verify_dumps_the_graph_it_searched(monkeypatch, capsys):
    code, out, err = run_cli(["--mode", "verify", "--dump-graph"], P1_TEXT,
                             monkeypatch, capsys)
    assert code == 0 and out == ""
    graph = dump_graph(encode_program(p1()))
    assert err == graph + ("symbreak: answer sets 4 -> 3\n"
                           "symbreak: verification passed\n")


def test_verify_enumerates_each_program_once(monkeypatch, capsys):
    from symbreak import oracle
    calls = []
    real = oracle.answer_sets

    def counting(program, budget=20):
        calls.append(program)
        return real(program, budget)

    # the cli imports the oracle only inside verify; patching the oracle
    # module alone must reach the enumeration
    monkeypatch.setattr(oracle, "answer_sets", counting)
    code, out, err = run_cli(["--mode", "verify"], P1_TEXT, monkeypatch, capsys)
    assert code == 0
    assert "answer sets 4 -> 3" in err
    assert len(calls) == 2  # the input and the augmented program


def test_verify_reports_a_break_that_admits_a_non_answer_set(monkeypatch, capsys):
    """A break that drops the input's constraint ``<- p, q`` admits {p, q},
    which is no answer set of the input."""
    from symbreak import cli

    def dropping(program, config=None):
        result = break_program(program, config)
        assert result.program.rules[0] == p3().rules[0]
        return result._replace(program=result.program._replace(
            rules=result.program.rules[1:]))

    monkeypatch.setattr(cli, "break_program", dropping)
    code, out, err = run_cli(["--mode", "verify"], P3_TEXT, monkeypatch, capsys)
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert "symbreak: VIOLATION: augmented program admits a non-answer-set" in lines
    assert "symbreak: verification passed" not in lines


def test_option_defaults_are_the_break_config_defaults():
    args = build_parser().parse_args([])
    config = BreakConfig()
    assert args.limit == config.aux_limit
    assert args.budget == config.search_budget
    assert args.stab_levels == config.stabilizer_levels
    assert args.no_rows != config.row_detection


def test_verify_pigeonhole_unsat_preserved(monkeypatch, capsys):
    text = write_program(pigeonhole(4, 3))
    code, out, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 0
    assert "unsat preserved" in err


def test_verify_wide_cardinality_body(monkeypatch, capsys):
    text = write_program(wide_cardinality())
    code, out, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 0
    assert "symbreak: answer sets 1 -> 1" in err.splitlines()


def test_verify_budget_exceeded(monkeypatch, capsys):
    text = write_program(pigeonhole(5, 5))  # 25 placement atoms, over budget
    code, out, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 2
    assert "budget" in err


def test_verify_names_a_generator_that_moves_answer_sets(monkeypatch, capsys):
    """A generator that fails answer-set preservation is printed over atom
    names, as a gate rejection is."""
    from symbreak import cli
    real = cli.break_program

    def with_a_swap(program, config=None):
        result = real(program, config)
        detection = result.detection._replace(
            generators=[AtomPermutation.from_cycles((1, 2))])
        return result._replace(detection=detection)

    monkeypatch.setattr(cli, "break_program", with_a_swap)
    text = "1 1 0 0\n3 1 2 0 0\n0\n1 a\n2 b\n0\nB+\n0\nB-\n0\n1\n"  # a. {b}.
    code, out, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 4
    assert ("symbreak: VIOLATION: generator (a b) does not preserve the answer sets"
            in err.splitlines())


def test_verify_counts_each_lost_orbit_once(monkeypatch, capsys):
    """A break that kills every answer set of P1 loses its three orbits,
    {}, {p} ~ {q} and {p, q}."""
    from symbreak import cli
    real = cli.break_program
    killed = p1()._replace(rules=p1().rules + (BasicRule(3, (1,)),
                                               BasicRule(3, (), (1,))),
                           compute_minus=(3,))

    def killing(program, config=None):
        return real(program, config)._replace(program=killed)

    monkeypatch.setattr(cli, "break_program", killing)
    code, out, err = run_cli(["--mode", "verify"], P1_TEXT, monkeypatch, capsys)
    assert code == 4
    assert err.splitlines() == ["symbreak: answer sets 4 -> 0",
                                "symbreak: VIOLATION: 3 orbit(s) lost every representative"]


def test_verify_free_choice_walks_each_orbit_once(monkeypatch, capsys):
    """S12's 4,096 answer sets form 13 orbits; each answer set meets each
    of the 11 generators once, where a walk per answer set took minutes."""
    calls = []
    real = AtomPermutation.apply_to_set

    def counting(perm, interp):
        calls.append(interp)
        return real(perm, interp)

    monkeypatch.setattr(AtomPermutation, "apply_to_set", counting)
    text = write_program(free_choice(range(1, 13)))
    code, out, err = run_cli(["--mode", "verify"], text, monkeypatch, capsys)
    assert code == 0
    assert err.splitlines() == ["symbreak: answer sets 4096 -> 13",
                                "symbreak: verification passed"]
    assert len(calls) == 4096 * 11


def test_pipe_composability_subprocess():
    proc = subprocess.run([sys.executable, "-m", "symbreak", "--stats"],
                          input=P1_TEXT.encode(), capture_output=True)
    assert proc.returncode == 0
    assert len(parse_program(proc.stdout.decode()).rules) == 3
    assert b"generators=1" in proc.stderr


@pytest.mark.parametrize("char", ["\u2028", "\x85", "\x0c"],
                         ids=["line-separator", "next-line", "form-feed"])
def test_lines_end_at_line_feeds_alone(char):
    """``str.splitlines`` also breaks at these characters; the reader does
    not, so a name that holds one is read as written, and a program with
    no symmetry comes back byte for byte."""
    text = f'1 2 0 0\n0\n2 p("a{char}b")\n0\nB+\n0\nB-\n0\n1\n'.encode()
    proc = subprocess.run([sys.executable, "-m", "symbreak"], input=text,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text


# ``<- a2, a1000000000``: two atoms, one of them named by a vast index
SPARSE_TEXT = "1 1 2 0 2 1000000000\n0\n0\nB+\n0\nB-\n1\n0\n1\n"
# ``a | b.`` with a third named atom, z, that no rule mentions
NAMED_UNUSED_TEXT = "8 2 2 3 0 0\n0\n2 a\n3 b\n40 z\n0\nB+\n0\nB-\n1\n0\n1\n"


def cap_address_space():
    """Caps this process's address space at 1 GiB; a child's preexec_fn."""
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, hard))


def test_sparse_atom_indices_cost_what_the_rules_cost():
    """Only the atoms the rules mention get graph nodes and ranks, so a
    child capped at 1 GiB of address space breaks the program above in
    the time a dense one takes: one generator, one appended rule."""
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-m", "symbreak", "--stats"],
                          input=SPARSE_TEXT, capture_output=True, encoding="utf-8",
                          preexec_fn=cap_address_space, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stats = stats_of(proc.stderr)
    assert (stats["generators"], stats["rules"]) == ("1", "1")
    assert parse_program(proc.stdout).rules[-1] == BasicRule(1, (2,), (10 ** 9,))


def test_verify_masks_grow_with_the_atoms_not_their_indices():
    """The oracle numbers its bits by position among the view's atoms, so
    verify on ``<- a2, a10000000000`` passes in a child capped at 1 GiB
    of address space; a bit per index up to 10^10 ran out of memory."""
    pytest.importorskip("resource")
    text = SPARSE_TEXT.replace("1000000000", "10000000000")
    proc = subprocess.run([sys.executable, "-m", "symbreak", "--mode", "verify"],
                          input=text, capture_output=True, encoding="utf-8",
                          preexec_fn=cap_address_space, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["symbreak: answer sets 1 -> 1",
                                        "symbreak: verification passed"]


def test_named_atom_no_rule_mentions_is_neither_broken_nor_guessed(monkeypatch, capsys):
    """Atom z is false in every answer set: it gets no node, so the only
    symmetry is the swap of a and b, and the oracle guesses only a and b."""
    code, _, err = run_cli(["--stats"], NAMED_UNUSED_TEXT, monkeypatch, capsys)
    assert code == 0
    stats = stats_of(err)
    assert (stats["generators"], stats["rules"]) == ("1", "1")
    code, out, err = run_cli(["--mode", "verify"], NAMED_UNUSED_TEXT, monkeypatch, capsys)
    assert code == 0 and out == ""
    assert err.splitlines() == ["symbreak: answer sets 2 -> 1",
                                "symbreak: verification passed"]


EMPTY_TEXT = "0\n0\nB+\n0\nB-\n0\n1\n"
SOURCE_ROOT = os.path.dirname(os.path.dirname(symbreak.__file__))


def run_python(args, stdin_text=""):
    """A fresh interpreter on this checkout's package, writing no bytecode,
    as a pipe stage without a bytecode cache starts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SOURCE_ROOT,
                                                       os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], input=stdin_text,
                          capture_output=True, encoding="utf-8", env=env)


def test_break_path_loads_neither_dataclasses_nor_the_oracle():
    """A pipe stage pays for every module it loads, on every start."""
    proc = run_python(["-X", "importtime", "-m", "symbreak"], EMPTY_TEXT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EMPTY_TEXT
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "symbreak.cli" in imported
    assert not {"dataclasses", "symbreak.oracle"} & imported


def test_oracle_names_resolve_on_first_use():
    """Every public name resolves, the oracle's ones by loading the oracle
    when first asked for, and ``import *`` binds them all."""
    proc = run_python(["-c", textwrap.dedent("""
        import sys
        import symbreak
        assert "symbreak.oracle" not in sys.modules
        names = {}
        exec("from symbreak import *", names)
        assert "symbreak.oracle" in sys.modules
        from symbreak import oracle
        for name in symbreak.__all__:
            assert names[name] is getattr(symbreak, name), name
        assert symbreak.answer_sets is oracle.answer_sets
        assert not hasattr(symbreak, "no_such_name")
        """)])
    assert proc.returncode == 0, proc.stderr


UNICODE_TEXT = "3 1 2 0 0\n3 1 3 0 0\n0\n2 p\u03c0\n3 q\n0\nB+\n0\nB-\n0\n1\n"


@pytest.mark.parametrize("mode", ["break", "detect"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("environment,flags", [
    ({"PYTHONIOENCODING": "ascii"}, []),
    ({"LC_ALL": "C", "PYTHONUTF8": "0"}, ["-X", "utf8=0"]),
], ids=["ascii-io", "c-locale"])
def test_non_ascii_names_are_written_as_utf8(mode, to_file, environment, flags, tmp_path):
    """Output goes out in the input's encoding, UTF-8, whatever the locale's."""
    source = tmp_path / "u.sm"
    source.write_bytes(UNICODE_TEXT.encode())
    target = tmp_path / "out.sm"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8") and not k.startswith("LC_")}
    env.update(environment)
    args = [sys.executable, *flags, "-m", "symbreak", "--mode", mode, str(source)]
    proc = subprocess.run(args + (["-o", str(target)] if to_file else []),
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = target.read_bytes() if to_file else proc.stdout
    assert "p\u03c0".encode() in out
    if mode == "break":
        assert parse_program(out).symbols[2] == "p\u03c0"


def test_cli_break_validates_the_input_once(monkeypatch, capsys):
    """The parser's pass is the one check of the input's rules: neither the
    CLI nor break_program walks them again with validate, and assemble's
    output check walks only the rules it appends."""
    from symbreak import smodels
    text = write_program(pigeonhole(4, 3))
    n_rules = len(parse_program(text).rules)
    starts = []
    real = smodels.validate

    def counting(program, first_rule=0):
        starts.append(first_rule)
        return real(program, first_rule)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symbreak" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    code, out, err = run_cli([], text, monkeypatch, capsys)
    assert code == 0
    assert len(parse_program(out).rules) > n_rules
    assert starts == [n_rules]
