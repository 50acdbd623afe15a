"""Checks of the benchmark itself.  They build and break every workload
instance, so the default test run does not collect them; run them with

    python3 -m pytest perfbench/checks.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from programs import pigeonhole
from symbreak import answer_sets, parse_program, write_program
from symbreak.pipeline import detect_symmetries

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.instance == b.instance
    assert a.probes == b.probes


def _answer_set_counts(work):
    return [len(answer_sets(parse_program(p), workloads.PROBE_BUDGET))
            for p in work.probes]


@pytest.mark.parametrize("name", ["php", "free-choice"])
def test_other_seed_gives_an_isomorphic_instance(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    assert a.instance != b.instance
    one, two = parse_program(a.instance), parse_program(b.instance)
    assert len(one.rules) == len(two.rules)
    assert one.max_atom == two.max_atom
    assert _answer_set_counts(a) == _answer_set_counts(b)


def test_relabel_round_trips_through_the_inverse_mapping():
    text = write_program(pigeonhole(3, 2))
    rng = random.Random(0)
    atoms = list(range(2, 8))
    mapping = dict(zip(atoms, rng.sample(atoms, len(atoms))))
    there = workloads.relabel(text, mapping, rng)
    back = workloads.relabel(there, {b: a for a, b in mapping.items()}, rng)
    assert there != text
    assert sorted(back.splitlines()) == sorted(text.splitlines())


@pytest.mark.parametrize("seed", [1, 2])
def test_asym_large_has_nothing_to_break(seed):
    detection = detect_symmetries(parse_program(workloads.build("asym-large", seed).instance))
    assert detection.search.generators == ()
    assert detection.search.tree_nodes == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_run(name):
    """The wrappers change no output byte, and the span self times add up
    to the traced pipe time within the benchmark's tolerance."""
    text = workloads.build(name, 3).instance
    _, _, out = bench.pipe(text)
    tally = bench.Tally()
    layers = bench.traced_pass(text, out, 1.0, tally)
    assert tally.failures == []
    assert tally.attempted == 2
    assert set(layers) == set(bench.PER_LAYER)
    assert layers["smodels.bytes_out"] == len(out.encode())
    spans = sum(v for k, v in layers.items()
                if k.endswith("_s") and not k.startswith("trace."))
    assert spans == pytest.approx(layers["trace.break_s"], rel=bench.SPAN_TOLERANCE)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "php",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
