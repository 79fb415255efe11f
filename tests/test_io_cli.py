import functools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import support
from conftest import PURE_SEED
from bilevel_exact import (SolverConfig, ValidationError, disagreement, instance_to_json,
                           load_instance, parse_and_validate, parse_instance, random_instance,
                           reference_oracle, report_to_json, solve_mixed, solve_pure)
from bilevel_exact import cli, decide, engine
from bilevel_exact.cli import cli_main
from bilevel_exact.instance_io import render_text


def fixture_doc():
    with open(support.EXAMPLE1_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_doc(doc):
    return parse_instance(json.dumps(doc))


def expect_code(doc, code):
    with pytest.raises(ValidationError) as err:
        parse_doc(doc)
    assert err.value.code == code


# ---------------------------------------------------------------------- io


def test_parse_fixture(example1_path):
    inst = parse_and_validate(example1_path)
    assert (inst.n, inst.d, inst.m, inst.h) == (1, 1, 3, 3)
    assert inst.c == (-1,) and inst.e == (1,)


def test_bad_json():
    with pytest.raises(ValidationError) as err:
        parse_instance("{nope")
    assert err.value.code == "bad-json"


def test_bad_format_cases():
    doc = fixture_doc()
    del doc["psi"]
    expect_code(doc, "bad-format")
    for version in (2, 1.0, "1", True):
        doc = fixture_doc()
        doc["format_version"] = version
        expect_code(doc, "bad-format")
    doc = fixture_doc()
    doc["name"] = 7
    expect_code(doc, "bad-format")
    doc = fixture_doc()
    doc["A"] = "matrix"
    expect_code(doc, "bad-format")
    expect_code([1, 2, 3], "bad-format")


def test_bad_variant():
    doc = fixture_doc()
    doc["variant"] = "stochastic"
    expect_code(doc, "bad-variant")


def test_bad_shape_cases():
    doc = fixture_doc()
    doc["n"] = 0
    expect_code(doc, "bad-shape")
    doc = fixture_doc()
    doc["A"] = [[1, 2], [1], [0]]
    expect_code(doc, "bad-shape")
    doc = fixture_doc()
    doc["u"] = [0, 1]
    expect_code(doc, "bad-shape")


def test_nonintegral_data_cases():
    doc = fixture_doc()
    doc["A"][0][0] = 0.5
    expect_code(doc, "nonintegral-data")
    doc = fixture_doc()
    doc["u"][0] = True
    expect_code(doc, "nonintegral-data")
    doc = fixture_doc()
    doc["n"] = 1.0
    expect_code(doc, "nonintegral-data")


def test_boundedness_codes():
    doc = fixture_doc()
    doc["D"] = [[0], [0], [0]]     # nothing caps z any more
    expect_code(doc, "unbounded-P")
    doc = fixture_doc()
    doc["A"] = [[-1], [-1], [-1]]  # follower region open toward +x
    expect_code(doc, "unbounded-follower")


def test_unreadable():
    with pytest.raises(ValidationError) as err:
        load_instance("/nonexistent/file.json")
    assert err.value.code == "unreadable"


def test_unknown_keys_tolerated():
    doc = fixture_doc()
    doc["annotation"] = {"any": "thing"}
    inst, meta = parse_doc(doc)
    assert meta["name"] == "example1"


def test_optional_keys_take_their_defaults(example1_path):
    doc = fixture_doc()
    for key in ("format_version", "variant", "name", "comment"):
        del doc[key]
    inst, meta = parse_doc(doc)
    assert inst == load_instance(example1_path)[0]
    assert meta == {"name": None, "variant": "mixed"}


def test_roundtrip_identity(example1_path):
    inst, meta = load_instance(example1_path)
    once = instance_to_json(inst, name=meta["name"], variant=meta["variant"])
    inst2, meta2 = parse_instance(once)
    assert inst2 == inst
    assert instance_to_json(inst2, name=meta2["name"], variant=meta2["variant"]) == once


def test_instance_to_json_writes_the_fixture_back():
    with open(support.EXAMPLE1_PATH, "r", encoding="utf-8") as fh:
        text = fh.read()
    inst, meta = parse_instance(text)
    written = instance_to_json(inst, name=meta["name"], variant=meta["variant"])
    expected = {key: value for key, value in json.loads(text).items() if key != "comment"}
    assert json.loads(written) == expected
    assert parse_instance(written) == (inst, meta)


def test_report_json_frozen(example1):
    rep = solve_mixed(example1, eps=Fraction(1, 8))
    assert report_to_json(rep) == """\
{
  "status": "unattained",
  "infimum": "-1",
  "solution": null,
  "eps_solution": {
    "x": [
      1
    ],
    "z": [
      "1/8"
    ],
    "value": "-7/8",
    "eps": "1/8"
  },
  "telemetry": {
    "decision_queries": 1,
    "bisection_steps": 0,
    "reconstruction_steps": 0,
    "cells": 2
  }
}
"""


def test_pure_report_json_frozen(example1):
    rep = solve_pure(example1)
    assert report_to_json(rep) == """\
{
  "status": "attained",
  "infimum": "0",
  "solution": {
    "x": [
      0
    ],
    "z": [
      "0"
    ]
  },
  "eps_solution": null,
  "telemetry": {
    "decision_queries": 0,
    "bisection_steps": 0,
    "reconstruction_steps": 0,
    "cells": 0
  }
}
"""


def test_report_writer_matches_json_dumps(example1, mixed_batch, pure_batch):
    # the direct writer against json.dumps(report_to_dict(r), indent=2) over
    # reports of every shape: infeasible, attained, and unattained with and
    # without an eps point, mixed and pure, each with no oracle agreement
    # and with either answer
    from dataclasses import replace
    from bilevel_exact import report_to_dict
    reports = [solve_mixed(example1, eps=Fraction(1, 8)), solve_mixed(example1),
               solve_pure(example1), solve_mixed(support.make_flipped())]
    reports += [rep for _, rep, _ in mixed_batch[0] + pure_batch[0]]
    shapes = set()
    for rep in reports:
        for agreement in (None, True, False):
            shaped = replace(rep, oracle_agreement=agreement)
            assert report_to_json(shaped) == json.dumps(report_to_dict(shaped), indent=2) + "\n"
        shapes.add((rep.status, rep.eps_solution is not None))
    assert shapes == {("Infeasible", False), ("Attained", False), ("Unattained", False),
                      ("Unattained", True)}


def test_solve_pure_runs_one_driver(example1, monkeypatch):
    rng = random.Random(PURE_SEED)
    instances = [example1] + [random_instance(rng) for _ in range(20)]
    oracled = [reference_oracle(inst, "pure") for inst in instances]

    def oracle_called(*args):
        raise AssertionError("solve_pure ran the reference oracle")

    monkeypatch.setattr(engine, "_cells_by_definition", oracle_called)
    for inst, orc in zip(instances, oracled):
        assert disagreement(inst, solve_pure(inst), orc, variant="pure") is None


def test_render_text_mentions_everything(example1):
    rep = solve_mixed(example1, eps=Fraction(1, 8))
    text = render_text(rep)
    assert "status: unattained" in text
    assert "infimum: -1" in text
    assert "-7/8" in text


# --------------------------------------------------------------------- cli


def test_cli_solve_text(example1_path, capsys):
    assert cli_main(["solve", example1_path]) == 0
    out = capsys.readouterr().out
    assert "status: unattained" in out and "infimum: -1" in out


def test_cli_solve_json_deterministic(example1_path, capsys):
    assert cli_main(["solve", example1_path, "--epsilon", "1/8", "--json"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["status"] == "unattained" and doc["infimum"] == "-1"
    assert doc["eps_solution"]["value"] == "-7/8"
    assert cli_main(["solve", example1_path, "--epsilon", "1/8", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_solve_pure(example1_path, capsys):
    assert cli_main(["solve", example1_path, "--mode", "pure", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "attained"
    assert doc["infimum"] == "0"
    assert doc["solution"] == {"x": [0], "z": ["0"]}


def test_cli_engines(example1_path, capsys):
    assert cli_main(["solve", example1_path, "--engine", "oracle"]) == 0
    capsys.readouterr()
    assert cli_main(["solve", example1_path, "--engine", "both", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_agreement"] is True


@pytest.mark.parametrize("variant", ["mixed", "pure", "infeasible"])
def test_cli_oracle_matches_solve_with_the_oracle_engine(variant, tmp_path, capsys):
    # the oracle subcommand reads the file's variant; solve --engine oracle
    # with no --mode does too, so both print one report with one exit code
    inst = support.make_infeasible_upper() if variant == "infeasible" else support.make_example1()
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(inst, variant="mixed" if variant == "infeasible" else variant))
    code = cli_main(["oracle", str(path), "--json"])
    out = capsys.readouterr().out
    assert cli_main(["solve", str(path), "--engine", "oracle", "--json"]) == code
    assert capsys.readouterr().out == out
    assert code == (1 if variant == "infeasible" else 0)
    assert json.loads(out)["status"] == {"mixed": "unattained", "pure": "attained",
                                         "infeasible": "infeasible"}[variant]


def test_cli_engine_both_builds_one_index(example1_path, capsys, monkeypatch):
    # the engine builds its cell index; the reference oracle builds none, as
    # it takes its cells from the definition
    from bilevel_exact import cells
    built = []
    real = cells.CellIndex._build

    def counting(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(cells.CellIndex, "_build", counting)
    assert cli_main(["solve", example1_path, "--engine", "both"]) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_cli_engine_both_pure(example1_path, capsys):
    assert cli_main(["solve", example1_path, "--mode", "pure", "--engine", "both", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_agreement"] is True
    assert doc["solution"] == {"x": [0], "z": ["0"]}


def test_cli_decide(example1_path, capsys):
    assert cli_main(["decide", example1_path, "--alpha=-1"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert cli_main(["decide", example1_path, "--alpha", "0"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_decide_pure(example1_path, capsys):
    # integer z leaves F' = {(0, 0), (1, 1)}, both of value 0
    assert cli_main(["decide", example1_path, "--mode", "pure", "--alpha=-1/2"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert cli_main(["decide", example1_path, "--mode", "pure", "--alpha", "0"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_decide_bad_rational(example1_path, capsys):
    assert cli_main(["decide", example1_path, "--alpha", "one"]) == 2
    assert "bad-rational" in capsys.readouterr().err


def test_cli_check(example1_path, tmp_path, capsys):
    assert cli_main(["check", example1_path]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    doc = fixture_doc()
    doc["u"] = [0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli_main(["check", str(bad)]) == 2
    assert "bad-shape" in capsys.readouterr().err


def test_cli_infeasible_exit(tmp_path):
    inst = support.make_infeasible_upper()
    path = tmp_path / "infeasible.json"
    path.write_text(instance_to_json(inst, name="contradiction", variant="mixed"))
    assert cli_main(["solve", str(path)]) == 1


@pytest.mark.parametrize("attained", [False, True])
def test_cli_solve_rejects_nonpositive_epsilon(attained, tmp_path, capsys):
    doc = fixture_doc()
    if attained:
        doc["c"] = [1]  # leader pays x + z: attained at (0, 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for flag in ("--epsilon=0", "--epsilon=-1/8"):
        assert cli_main(["solve", str(path), flag]) == 2
        assert "validation error [bad-epsilon]" in capsys.readouterr().err
    # an empty value is a malformed rational, not an absent flag
    assert cli_main(["solve", str(path), "--epsilon="]) == 2
    assert "validation error [bad-rational]" in capsys.readouterr().err
    assert cli_main(["solve", str(path), "--epsilon=1/8"]) == 0
    capsys.readouterr()


def test_cli_parser_built_once_keeps_no_state(example1_path, capsys):
    # one parser serves every cli_main call of a process; the options of one
    # command line must not reach the next
    cli._build_parser.cache_clear()
    assert cli_main(["decide", example1_path, "--alpha=0"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert cli_main(["solve", example1_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unattained" and doc["infimum"] == "-1"
    assert doc["eps_solution"] is None
    assert cli_main(["solve", example1_path, "--epsilon", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error [bad-epsilon]" in captured.err
    assert cli_main(["solve", example1_path]) == 0
    assert "status: unattained" in capsys.readouterr().out
    assert cli._build_parser.cache_info().misses == 1


def test_cli_missing_file(capsys):
    assert cli_main(["solve", "/no/such/file.json"]) == 2
    assert "unreadable" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "solve"])
def test_cli_file_not_utf8(tmp_path, capsys, command):
    # a file that is not UTF-8 is a validation error (exit 2), not a
    # traceback and not the infeasible exit code
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ValidationError, match="cannot read") as err:
        load_instance(str(path))
    assert err.value.code == "unreadable"
    assert cli_main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error [unreadable]" in captured.err


def test_cli_fuzz(capsys):
    assert cli_main(["fuzz", "--count", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ok: 3 instances, seed 1" in out


def test_cli_fuzz_rejects_a_negative_count(capsys):
    assert cli_main(["fuzz", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error [bad-count]" in captured.err


def test_cli_solve_has_no_seed_flag(example1_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["solve", example1_path, "--seed", "3"])
    assert err.value.code == 2
    capsys.readouterr()


def _readme_output_after(command):
    """The README's output block that follows the block holding `command`."""
    with open(os.path.join(support.ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    at = next(i for i, block in enumerate(blocks) if command in block)
    return blocks[at + 1].strip().splitlines()


def test_solve_example1_script_matches_readme():
    script = os.path.join(support.ROOT, "scripts", "solve_example1.py")
    out = subprocess.run([sys.executable, script], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    sections = out.split("\n\n")
    mixed = next(s for s in sections if s.startswith("mixed solve")).splitlines()[1:]
    pure = next(s for s in sections if s.startswith("pure solve")).splitlines()[1:]
    assert mixed == _readme_output_after("example1.json --epsilon 1/8")
    assert pure == _readme_output_after("example1.json --mode pure")


def test_ab_inprocess_script_runs_one_checkout_against_itself():
    # the A/B timing tool, run with this checkout as both sides on one pass
    # of pure-small and one of mixed-small, whose answers include the lex
    # traces, ends with equal answers after equal RhsFamily solve counts
    script = os.path.join(support.ROOT, "scripts", "ab_inprocess.py")
    for workload in ("pure-small", "mixed-small"):
        out = subprocess.run([sys.executable, script, support.ROOT, support.ROOT, workload,
                              "--reps", "1"], capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        counts, last = out.stdout.splitlines()[-2:]
        assert last == "answers equal: yes"
        parent, change = re.fullmatch(r"RhsFamily solves: parent (\d+), change (\d+)",
                                      counts).groups()
        assert parent == change and int(parent) > 0


def _with_config(monkeypatch, config):
    """Route the CLI's solves and mixed decide queries through `config`; the
    CLI has no cap flags."""
    monkeypatch.setattr(cli, "solve_mixed", functools.partial(engine.solve_mixed, config=config))
    monkeypatch.setattr(cli, "solve_pure", functools.partial(engine.solve_pure, config=config))
    monkeypatch.setattr(cli, "decide_le", functools.partial(decide.decide_le, config=config))


@pytest.mark.parametrize("field, words, mode", [
    ("cell_cap", "cell enumeration cap", "mixed"),
    ("node_cap", "node cap", "mixed"),
    ("cell_cap", "cell enumeration cap", "pure"),
    ("node_cap", "node cap", "pure"),
])
def test_cli_cap_hit_names_the_cap(field, words, mode, example1_path, monkeypatch, capsys):
    _with_config(monkeypatch, SolverConfig(**{field: 0}))
    assert cli_main(["solve", example1_path, "--mode", mode]) == 3
    err = capsys.readouterr().err
    line = next(ln for ln in err.splitlines() if ln.startswith("resource limit:"))
    assert f"{field}=0:" in line and words in line


def test_cli_decide_cap_hit_names_the_cap(example1_path, monkeypatch, capsys):
    # a cold mixed query walks the cells itself, under the same cell_cap
    _with_config(monkeypatch, SolverConfig(cell_cap=0))
    assert cli_main(["decide", example1_path, "--alpha", "0"]) == 3
    err = capsys.readouterr().err
    assert any(ln.startswith("resource limit: cell_cap=0:") for ln in err.splitlines())
