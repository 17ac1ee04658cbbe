"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import unitsel.bench
import unitsel.elimination
from unitsel import ModelError, cli, fixture_path, load_model, rmap_ve
from unitsel.cli import main, parse_assignments
from unitsel.elimination import EliminationOrder
from unitsel.inference import format_trace
from unitsel.reductions import parse_dimacs
from corpus import gate_count

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def two_node(tmp_path):
    dst = tmp_path / "two_node.json"
    shutil.copy(fixture_path("two_node.json"), dst)
    return dst


@pytest.fixture()
def five_node(tmp_path):
    dst = tmp_path / "five_node.json"
    shutil.copy(fixture_path("five_node.json"), dst)
    return dst


@pytest.fixture()
def observe_v1_objective(tmp_path):
    path = tmp_path / "objective.json"
    path.write_text('{"units":["U"],"terms":[{"weight":1.0,"y":{"V":"v1"}}]}')
    return path


@pytest.fixture()
def xor(tmp_path):
    # Y = A xor B.
    path = tmp_path / "xor.json"
    path.write_text(
        '{"variables":[{"name":"A","states":["0","1"]},{"name":"B","states":["0","1"]},'
        '{"name":"Y","states":["0","1"]}],"parents":{"A":[],"B":[],"Y":["A","B"]},'
        '"cpts":{"A":[0.5,0.5],"B":[0.5,0.5],"Y":[1,0,0,1,0,1,1,0]}}'
    )
    return path


@pytest.fixture()
def xor_objective(tmp_path):
    path = tmp_path / "xor_objective.json"
    path.write_text('{"units":["A","B"],"terms":[{"weight":1.0,"y":{"Y":"1"}}]}')
    return path


@pytest.fixture()
def benefit_objective(tmp_path):
    # Two benefit terms over treatment C and outcome E of five_node, no evidence.
    path = tmp_path / "benefit_objective.json"
    path.write_text(json.dumps({"units": ["A"], "terms": [
        {"weight": 0.5, "x": {"C": "c0"}, "y": {"E": "e0"}, "v": {"C": "c1"}, "w": {"E": "e1"}},
        {"weight": 0.5, "x": {"C": "c0"}, "y": {"E": "e1"}, "v": {"C": "c1"}, "w": {"E": "e0"}},
    ]}))
    return path


def test_solve_two_node(capsys, two_node, observe_v1_objective):
    code = main([
        "solve", "--model", str(two_node), "--objective", str(observe_v1_objective),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "unit: U=u1" in out
    assert "value: 0.6" in out
    assert "excluded: 0" in out


def test_solve_json_and_method_equivalence(capsys, two_node, observe_v1_objective, xor, xor_objective,
                                           tmp_path):
    outputs = []
    for method in ("ve", "brute"):
        code = main([
            "solve", "--model", str(two_node), "--objective",
            str(observe_v1_objective), "--method", method, "--json",
        ])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["unit"] == {"U": "u1"}
    assert abs(doc["value"] - 0.6) < 1e-12
    assert doc["excluded"] == 0

    # Y = A xor B: the units (0, 1) and (1, 0) tie. An order file listing the
    # unit block as A, B once made --method ve answer A=1,B=0.
    order = tmp_path / "xor_order.txt"
    order.write_text("#constrained: A,B\n[Y^1]\nH\nA\nB\n")
    outputs = []
    for extra in (["--method", "ve", "--order", str(order)], ["--method", "brute"]):
        assert main(["solve", "--model", str(xor), "--objective", str(xor_objective),
                     *extra, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == '{"unit":{"A":"0","B":"1"},"value":1.0,"excluded":0}\n'


def test_solve_missing_model_exits_1(capsys, observe_v1_objective):
    code = main([
        "solve", "--model", "/nonexistent/model.json",
        "--objective", str(observe_v1_objective),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_map_and_rmap_two_node(capsys, two_node):
    assert main(["map", "--model", str(two_node), "--targets", "U", "--e", "V=v1"]) == 0
    out = capsys.readouterr().out
    assert "instantiation: U=u2" in out and "0.24" in out
    assert main(["rmap", "--model", str(two_node), "--targets", "U", "--e1", "V=v1"]) == 0
    out = capsys.readouterr().out
    assert "instantiation: U=u1" in out and "0.6" in out


def test_rmap_rejects_overlapping_sets(capsys, two_node):
    code = main([
        "rmap", "--model", str(two_node), "--targets", "U",
        "--e1", "V=v1", "--e2", "V=v2",
    ])
    assert code == 1


def test_parse_assignments(five_node):
    scm = load_model(five_node.read_bytes())
    assert parse_assignments(scm, "A=a0,,B=b1, ") == {0: 0, 1: 1}
    with pytest.raises(ModelError, match="^bad assignment 'A', expected name=state$"):
        parse_assignments(scm, "A")
    with pytest.raises(ModelError, match="^variable 'A' has no state 'a9'$"):
        parse_assignments(scm, "B=b1, A=a9")
    with pytest.raises(ModelError, match="^evidence variable 'A' is repeated$"):
        parse_assignments(scm, "A=a0, A =a1")


def test_map_zero_optimum_exits_2(capsys, five_node):
    # B = A and C = not A, so B=b0,C=c0 has probability zero; map once
    # printed its value 0.0 and exited 0.
    code = main(["map", "--model", str(five_node), "--targets", "A", "--e", "B=b0,C=c0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "value: 0.0\ninstantiation: A=a0\n"
    assert captured.err == "error: MAP optimum is zero: evidence inconsistent\n"


def _unitsel(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "unitsel", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_process_exit_codes():
    # The codes reach the process through sys.exit(main()). A usage error once
    # exited 2, the code for inconsistent evidence.
    proc = _unitsel("map", "--targets", "A")
    assert proc.returncode == 1
    assert "the following arguments are required: --model" in proc.stderr
    proc = _unitsel("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: unitsel")
    proc = _unitsel("map", "--model", fixture_path("five_node.json"), "--targets", "A",
                    "--e", "B=b0,C=c0")
    assert proc.returncode == 2
    assert "value: 0.0\n" in proc.stdout
    assert "error: MAP optimum is zero" in proc.stderr


def test_memory_error_exits_1_without_traceback(capsys, two_node, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 32.0 TiB")

    monkeypatch.setattr(cli, "cmd_rmap", exhausted)
    code = main(["rmap", "--model", str(two_node), "--targets", "U", "--e1", "V=v1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "32.0 TiB" in err and "Traceback" not in err


def test_trace_prints_worked_clusters(capsys, five_node, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("#constrained: A,B\nE\nD\nC\nB\nA\n")
    code = main([
        "map", "--model", str(five_node), "--targets", "A,B",
        "--e", "E=e0", "--order", str(order), "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for cluster in ("CE", "BCD", "ABC", "AB"):
        assert cluster in out


def test_order_file_reader(capsys, five_node, tmp_path):
    # One name per line; blank lines and other # lines are skipped; the
    # header, when present, is the order's constrained suffix.
    scm = load_model(five_node.read_bytes())
    ids = {v.name: v.id for v in scm.variables}
    seq = tuple(ids[n] for n in "EDCBA")
    order = tmp_path / "order.txt"
    order.write_text("#constrained: A,B\nE\n\n# a comment\n D \nC\nB\nA\n")
    assert cli._load_order(str(order), scm) == EliminationOrder(seq, frozenset({ids["A"], ids["B"]}))
    plain = tmp_path / "plain.txt"
    plain.write_text("E\nD\nC\nB\nA\n")
    assert cli._load_order(str(plain), scm) == EliminationOrder(seq)
    assert cli._load_order(str(plain), scm).constrained_suffix is None
    # Either file drives a query to the same answer and trace.
    outputs = []
    for path in (order, plain):
        assert main(["map", "--model", str(five_node), "--targets", "A,B", "--e", "E=e0",
                     "--order", str(path), "--trace"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_order_file_header_must_name_the_query_variables(capsys, xor, xor_objective, tmp_path):
    # A header naming other variables than the targets (map, rmap) or the
    # objective's units (solve) once answered as if it named them, exit 0.
    order = tmp_path / "order.txt"
    refused = "error: elimination order is constrained on variables other than the targets\n"
    for text, args in (
        ("#constrained: B\nY\nA\nB\n", ["map", "--targets", "A,B", "--e", "Y=1"]),
        ("#constrained: B\nY\nA\nB\n", ["rmap", "--targets", "A,B", "--e1", "Y=1"]),
        ("#constrained: A,B\nY\nA\nB\n", ["map", "--targets", "B", "--e", "Y=1"]),
        ("#constrained: A\n[Y^1]\nH\nB\nA\n", ["solve", "--objective", str(xor_objective)]),
    ):
        order.write_text(text)
        capsys.readouterr()
        assert main([*args, "--model", str(xor), "--order", str(order)]) == 1, args
        assert capsys.readouterr() == ("", refused), args


def test_order_file_header_repeats_are_refused(capsys, xor, tmp_path):
    # A repeated header name was refused as "must occupy the tail", and with
    # two header lines the last one silently won.
    order = tmp_path / "order.txt"
    query = ["map", "--model", str(xor), "--targets", "A,B", "--e", "Y=1", "--order", str(order)]
    for text, err in (
        ("#constrained: A,A\nY\nA\nB\n", "constrained variable 'A' is repeated"),
        ("#constrained: A\n#constrained: A,B\nY\nA\nB\n", "order file has more than one #constrained: header"),
        ("#constrained: A,B\nY\nA\n#constrained: A,B\nB\n", "order file has more than one #constrained: header"),
    ):
        order.write_text(text)
        capsys.readouterr()
        assert main(query) == 1, text
        assert capsys.readouterr() == ("", f"error: {err}\n"), text


def test_solve_brute_refuses_an_order(capsys, xor, xor_objective, tmp_path):
    # brute orders nothing: it once built the objective model to parse the
    # file, then ignored it and exited 0, whatever the header said.
    order = tmp_path / "order.txt"
    for text in ("#constrained: A,B\n[Y^1]\nH\nA\nB\n", "#constrained: B\nY\nA\nB\n"):
        order.write_text(text)
        capsys.readouterr()
        assert main(["solve", "--model", str(xor), "--objective", str(xor_objective),
                     "--method", "brute", "--order", str(order)]) == 1
        assert capsys.readouterr() == ("", "error: an elimination order applies to method 've' only\n")


def test_solve_observed_outcome_on_a_bayesian_network(capsys, tmp_path):
    # U -> Y with a noisy Y, and the term Pr(Y=1 | Y=1, u) = 1. solve once
    # answered Pr(Y=1 | u) = 0.7: the full objective model puts e and y into
    # separate worlds, which on a plain Bayesian network share only U. The
    # commands that need that model refuse the term.
    model, objective, out = tmp_path / "bn.json", tmp_path / "o.json", tmp_path / "om.json"
    model.write_text(
        '{"variables":[{"name":"U","states":["0","1"]},{"name":"Y","states":["0","1"]}],'
        '"parents":{"U":[],"Y":["U"]},"cpts":{"U":[0.5,0.5],"Y":[0.3,0.7,0.6,0.4]}}'
    )
    objective.write_text('{"units":["U"],"terms":[{"weight":1.0,"y":{"Y":"1"},"e":{"Y":"1"}}]}')
    order = tmp_path / "order.txt"
    order.write_text("#constrained: U\nY^1\n[Y^1]\nH\nU\n")
    solve = ["solve", "--model", str(model), "--objective", str(objective)]
    for method in ("ve", "brute"):
        assert main([*solve, "--method", method]) == 0
        assert capsys.readouterr().out == "unit: U=0\nvalue: 1.0\nexcluded: 0\n"
    error = "error: term 1 asserts events in separate worlds: the base model must be functional\n"
    for command in ([*solve, "--order", str(order)],
                    ["build-objective-model", "--model", str(model), "--objective", str(objective),
                     "--out", str(out)],
                    ["width", "--model", str(model), "--units", "U", "--objective", str(objective)]):
        assert main(command) == 1, command
        assert capsys.readouterr() == ("", error), command
    assert not out.exists()


def test_rmap_trace_prints_the_api_trace(capsys, five_node):
    code = main([
        "rmap", "--model", str(five_node), "--targets", "A,B",
        "--e1", "D=d1", "--e2", "E=e0", "--trace",
    ])
    assert code == 0
    scm = load_model(five_node.read_bytes())
    ids = {v.name: v.id for v in scm.variables}
    result = rmap_ve(scm, [ids["A"], ids["B"]], {ids["D"]: 1}, {ids["E"]: 0}, want_trace=True)
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[:-3]) == format_trace(result.trace, scm)
    assert lines[-3:] == [f"value: {result.value!r}", "instantiation: A=a1,B=b1", "excluded: 3"]


def test_width_five_node(capsys, five_node):
    assert main(["width", "--model", str(five_node)]) == 0
    out = capsys.readouterr().out
    assert "width: 2" in out


def test_width_with_units_prints_pinned_clusters(capsys, five_node):
    assert main(["width", "--model", str(five_node), "--units", "A,B"]) == 0
    assert capsys.readouterr().out == "width: 2\nclusters: BCD CE ABC AB B\n"


def test_width_exhaustive_prints_the_first_optimal_order(capsys, five_node):
    # Byte for byte what the enumeration of every order printed here.
    for units, out in (
        ([], "width: 2\nclusters: ABC BCD CDE DE E\n"),
        (["--units", "A,B"], "width: 2\nclusters: BCD CE ABC AB B\n"),
    ):
        assert main(["width", "--model", str(five_node), "--order", "exhaustive", *units]) == 0
        assert capsys.readouterr().out == out


def test_width_exhaustive_answers_up_to_the_phase_limit(capsys, tmp_path):
    # The tight family at n = 6 has 6!·6! constrained orders, too many to
    # enumerate; one phase over the limit is refused with empty stdout.
    limit = unitsel.elimination.EXACT_MAX_FREE
    for n, code in ((6, 0), (limit + 1, 1)):
        model = tmp_path / f"tight{n}.json"
        assert main(["gen", "--kind", "tight", "--n", str(n), "--out", str(model)]) == 0
        capsys.readouterr()
        units = ",".join(f"U{i}" for i in range(1, n + 1))
        args = ["width", "--model", str(model), "--units", units, "--order", "exhaustive"]
        assert main(args) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", f"error: exact oracle limited to {limit} nodes per phase\n")
        else:
            assert out.startswith("width: 3\n")


def test_width_tight_family(capsys, tmp_path):
    model = tmp_path / "tight.json"
    objective = tmp_path / "tight_objective.json"
    assert main([
        "gen", "--kind", "tight", "--n", "5",
        "--out", str(model), "--objective-out", str(objective),
    ]) == 0
    capsys.readouterr()
    units = ",".join(f"U{i}" for i in range(1, 6))
    code = main([
        "width", "--model", str(model), "--units", units,
        "--objective", str(objective),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "width: 3" in out
    assert "observed<=bound PASS" in out
    lifted = [l for l in out.splitlines() if l.startswith("lifted constrained width")]
    assert lifted and int(lifted[0].split(":")[1]) >= 5


def test_width_objective_with_evidence_and_one_outcome(capsys, five_node, tmp_path):
    # Evidence rules out the twin bound 2w+2; one outcome variable (D, in
    # both terms) gives 3w+3.
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps({"units": ["A"], "terms": [
        {"weight": 0.5, "x": {"B": "b0"}, "y": {"D": "d1"}, "e": {"E": "e0"}},
        {"weight": 0.5, "y": {"D": "d0"}, "e": {"C": "c1"}},
    ]}))
    code = main(["width", "--model", str(five_node), "--units", "A", "--objective", str(objective)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "lifted constrained width: 3", "bound=3w+3 observed<=bound PASS",
    ]


def test_width_twin_objective_with_one_outcome(capsys, five_node, benefit_objective):
    code = main(["width", "--model", str(five_node), "--units", "A", "--objective", str(benefit_objective)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "bound=2w+2 observed<=bound PASS"


def test_width_refuses_units_other_than_the_objectives(capsys, tmp_path):
    # The constrained bound holds for the objective's own units; with other
    # --units its premise failed and width reported a false breach (exit 3).
    model = tmp_path / "m.json"
    assert main(["gen", "--kind", "random", "--n", "8", "--seed", "3", "--out", str(model)]) == 0
    objective = tmp_path / "L.json"
    objective.write_text(json.dumps({"units": ["X1", "R1", "R2"], "terms": [
        {"weight": 0.5, "x": {"X2": "0"}, "y": {"X8": "1"}, "v": {"X2": "1"}, "w": {"X8": "0"}},
        {"weight": 0.5, "x": {"X2": "0"}, "y": {"X7": "1"}, "e": {"X4": "1"}},
    ]}))
    width = ["width", "--model", str(model), "--objective", str(objective)]
    for units in ("R1", "R2,R1", "X1,R1,R2,X2"):
        capsys.readouterr()
        assert main([*width, "--units", units]) == 1, units
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --units must name exactly the objective's units (X1,R1,R2)\n"
    for units in (["--units", "X1,R1,R2"], ["--units", "R2,X1,R1"], []):
        assert main([*width, *units]) == 0, units
        assert capsys.readouterr().out.splitlines()[-1].endswith("PASS")


def test_violated_width_bounds_exit_3(capsys, five_node, benefit_objective, monkeypatch):
    # A bound of -1 stands in for a proven bound that fails; the result is
    # printed before main reports the breach.
    monkeypatch.setattr(cli, "lifted_width_bound", lambda objective, w, n_units: (-1, "-1"))
    code = main(["width", "--model", str(five_node), "--units", "A", "--objective", str(benefit_objective)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.splitlines()[-1] == "bound=-1 observed<=bound FAIL"
    assert err == "internal invariant breach: a proven width bound was violated\n"
    monkeypatch.setattr(unitsel.bench, "lifted_width_bound", lambda objective, w, n_units: (-1, "-1"))
    assert main(["bench", "--config", "default", "--trials", "1"]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("n,n2,R,ur,n1,w,w1,w2\n")
    assert err == "internal invariant breach: lifted-order width bound violated\n"


def test_ignored_flag_combinations_are_refused(capsys, five_node, benefit_objective, tmp_path):
    # width once ignored --lifted beside --objective, and gen --kind random
    # wrote no objective; both exited 0.
    code = main(["width", "--model", str(five_node), "--units", "A",
                 "--objective", str(benefit_objective), "--lifted", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "argument --lifted: not allowed with argument --objective" in err
    model, objective = tmp_path / "gen.json", tmp_path / "gen_objective.json"
    code = main(["gen", "--kind", "random", "--n", "4", "--out", str(model),
                 "--objective-out", str(objective)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: --objective-out applies to --kind tight only\n"
    assert not model.exists() and not objective.exists()


def test_width_lifted_nworld(capsys, five_node):
    code = main([
        "width", "--model", str(five_node), "--units", "A", "--lifted", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound=w observed<=bound PASS" in out


def test_width_lifted_with_a_root_named_like_a_copy(capsys, tmp_path):
    # The world-1 copy of Y is named Y^1 too; it once failed the build with
    # "variable names must be unique" (exit 1).
    model = tmp_path / "m1.json"
    model.write_text(
        '{"variables":[{"name":"Y^1","states":["0","1"]},{"name":"Y","states":["0","1"]}],'
        '"parents":{"Y^1":[],"Y":["Y^1"]},"cpts":{"Y^1":[0.5,0.5],"Y":[1,0,0,1]}}'
    )
    assert main(["width", "--model", str(model), "--lifted", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "lifted unconstrained width (2-world): 2", "bound=n(w+1)-1 observed<=bound PASS"]


def test_width_objective_with_an_empty_term(capsys, five_node, tmp_path):
    # No term keeps a world, so no endogenous variable has a copy; lifting
    # the order once raised a raw KeyError.
    objective = tmp_path / "objective.json"
    objective.write_text('{"units":["A"],"terms":[{"weight":1.0}]}')
    assert main(["width", "--model", str(five_node), "--objective", str(objective),
                 "--units", "A"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "lifted constrained width: 0", "bound=max(3w+3,|U|) observed<=bound PASS"]


def test_width_order_file_contract(capsys, five_node, tmp_path):
    # Without --units the header is the suffix; with --units the header, if
    # any, must name them and the file must end in them.
    order = tmp_path / "order.txt"
    model = ["width", "--model", str(five_node), "--order", str(order)]
    outputs = []
    for text, units in (("#constrained: A\nE\nD\nC\nB\nA\n", []),
                        ("#constrained: A\nE\nD\nC\nB\nA\n", ["--units", "A"]),
                        ("E\nD\nC\nB\nA\n", ["--units", "A"])):
        order.write_text(text)
        assert main([*model, *units, "--lifted", "2"]) == 0, (text, units)
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[2] != outputs[0]
    assert outputs[1].splitlines()[-2:] == ["lifted constrained width (2-world): 2",
                                            "bound=w observed<=bound PASS"]


def test_width_refusals_leave_stdout_empty(capsys, five_node, tmp_path):
    # width once printed its width and clusters before these refusals.
    order = tmp_path / "order.txt"
    order.write_text("E\nD\nC\nA\nB\n")
    header = tmp_path / "header.txt"
    header.write_text("#constrained: B\nE\nD\nC\nA\nB\n")
    model = ["width", "--model", str(five_node)]
    for args, err in (
        (["--units", "A", "--lifted", "0"], "world count must be >= 1, got 0"),
        (["--units", "A", "--order", str(order)], "constrained variables must occupy the tail of the order"),
        (["--units", "A", "--order", str(order), "--lifted", "2"],
         "constrained variables must occupy the tail of the order"),
        (["--units", "A,B", "--order", str(header)],
         "the order file's #constrained: header must name exactly the --units"),
        (["--objective", str(tmp_path / "missing.json")], None),
    ):
        capsys.readouterr()
        assert main([*model, *args]) == 1, args
        out, got = capsys.readouterr()
        assert out == "", args
        assert err is None or got == f"error: {err}\n", args


def test_compile_cnf_then_rmap_contradiction_exits_2(capsys, tmp_path):
    dimacs = tmp_path / "contradiction.cnf"
    dimacs.write_text("p cnf 1 2\n1 0\n-1 0\n")
    model = tmp_path / "circuit.json"
    assert main(["compile-cnf", "--dimacs", str(dimacs), "--out", str(model)]) == 0
    err = capsys.readouterr().err
    assert "sentinel: s" in err
    sentinel = err.split("sentinel:")[1].strip()
    code = main([
        "rmap", "--model", str(model), "--targets", "x1",
        "--e1", f"{sentinel}=1",
    ])
    assert code == 2


def test_inconsistent_e2_exits_2(capsys, tmp_path):
    # x1 and not x1: the sentinel s2 is never 1, so e2 has zero mass.
    dimacs = tmp_path / "contradiction.cnf"
    dimacs.write_text("p cnf 1 2\n1 0\n-1 0\n")
    model = tmp_path / "circuit.json"
    assert main(["compile-cnf", "--dimacs", str(dimacs), "--out", str(model)]) == 0
    assert capsys.readouterr().err == "sentinel: s2\n"
    code = main(["rmap", "--model", str(model), "--targets", "x1", "--e2", "s2=1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: evidence e2 is inconsistent with every target instantiation\n"


def test_solve_zero_optimum_exits_2(capsys, tmp_path):
    # X = N and Y = X: under do(X=0), Y is 0 whatever the unit U.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "variables": [{"name": v, "states": ["0", "1"]} for v in "UNXY"],
        "parents": {"U": [], "N": [], "X": ["N"], "Y": ["X"]},
        "cpts": {"U": [0.5, 0.5], "N": [0.5, 0.5], "X": [1, 0, 0, 1], "Y": [1, 0, 0, 1]},
    }))
    objective = tmp_path / "objective.json"
    objective.write_text('{"units":["U"],"terms":[{"weight":1.0,"x":{"X":"0"},"y":{"Y":"1"}}]}')
    code = main(["solve", "--model", str(model), "--objective", str(objective)])
    captured = capsys.readouterr()
    assert code == 2
    assert "value: 0.0\n" in captured.out
    assert "objective value is zero" in captured.err


def test_repeated_unit_is_refused(capsys, tmp_path):
    # A repeated unit once built a stray root and a second unit copy: solve
    # answered on that model and width failed with an unrelated message.
    model = tmp_path / "model.json"
    assert main(["gen", "--kind", "random", "--n", "4", "--seed", "1", "--out", str(model)]) == 0
    objective = tmp_path / "objective.json"
    objective.write_text(
        '{"units":["X1","X1"],"terms":[{"weight":1.0,"x":{"X2":"0"},"y":{"X4":"1"}}]}'
    )
    given = ["--model", str(model), "--objective", str(objective)]
    for args in (
        ["solve", *given],
        ["solve", "--method", "brute", "--json", *given],
        ["build-objective-model", *given],
        ["width", "--units", "X1", *given],
    ):
        capsys.readouterr()
        assert main(args) == 1, args
        assert capsys.readouterr().err == "error: invalid objective: unit variable 'X1' is repeated\n"


def test_repeated_evidence_and_unit_names_are_refused(capsys, five_node):
    # A repeated evidence name once kept only its last state, a repeated
    # --units name was counted twice in the max(3w+3,|U|) bound, and a
    # repeated --targets name was dropped; all exited 0.
    model = ["--model", str(five_node)]
    for args, name in (
        (["map", *model, "--targets", "A,B", "--e", "E=e0,E=e1"], "evidence variable 'E'"),
        (["map", *model, "--targets", "A", "--e", "E=e0, E=e0"], "evidence variable 'E'"),
        (["rmap", *model, "--targets", "A,B", "--e2", "D=d0,D=d1"], "evidence variable 'D'"),
        (["rmap", *model, "--targets", "A", "--e1", "D=d1,E=e0,D=d1"], "evidence variable 'D'"),
        (["map", *model, "--targets", "A,A", "--e", "E=e0"], "target variable 'A'"),
        (["rmap", *model, "--targets", "A, B,A", "--e1", "E=e0"], "target variable 'A'"),
        (["width", *model, "--units", "A,A"], "unit variable 'A'"),
        (["width", *model, "--units", "A, B,A", "--lifted", "2"], "unit variable 'A'"),
    ):
        capsys.readouterr()
        assert main(args) == 1, args
        assert capsys.readouterr().err == f"error: {name} is repeated\n", args


def test_compile_cnf_model_json_is_stable(capsys, tmp_path):
    # Gates take ids and s1, s2, ... names in post-order of the AST.
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 2 2\n1 -2 0\n-1 0\n")
    model = tmp_path / "f.json"
    assert main(["compile-cnf", "--dimacs", str(dimacs), "--out", str(model)]) == 0
    assert "sentinel: s4" in capsys.readouterr().err
    assert model.read_bytes() == (
        b'{"variables":[{"name":"x1","states":["0","1"]},{"name":"x2","states":["0","1"]},'
        b'{"name":"s1","states":["0","1"]},{"name":"s2","states":["0","1"]},'
        b'{"name":"s3","states":["0","1"]},{"name":"s4","states":["0","1"]}],'
        b'"parents":{"x1":[],"x2":[],"s1":["x2"],"s2":["x1","s1"],"s3":["x1"],'
        b'"s4":["s2","s3"]},"cpts":{"x1":[0.5,0.5],"x2":[0.5,0.5],"s1":[0.0,1.0,1.0,0.0],'
        b'"s2":[1.0,0.0,0.0,1.0,0.0,1.0,0.0,1.0],"s3":[0.0,1.0,1.0,0.0],'
        b'"s4":[1.0,0.0,1.0,0.0,1.0,0.0,0.0,1.0]}}'
    )


def test_compile_cnf_large_formula_exits_0(capsys, tmp_path):
    # The conjunction nests one level per clause: 1,200 clauses are deeper
    # than the recursion limit.
    clauses = [f"{i % 40 + 1} -{7 * i % 40 + 1} {13 * i % 40 + 1} 0" for i in range(1200)]
    text = "p cnf 40 1200\n" + "\n".join(clauses) + "\n"
    dimacs = tmp_path / "big.cnf"
    dimacs.write_text(text)
    model = tmp_path / "big.json"
    assert main(["compile-cnf", "--dimacs", str(dimacs), "--out", str(model)]) == 0
    gates = gate_count(parse_dimacs(text).root)
    assert len(json.loads(model.read_text())["variables"]) == 40 + gates


@st.composite
def _dimacs_like(draw):
    """Well-formed CNF, then possibly a wrong header or a bad token."""
    n = draw(st.integers(1, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=6))
    header = draw(st.sampled_from(
        [f"p cnf {n} {len(clauses)}", f"p cnf {n} {len(clauses) + 1}", "p cnf 0 1",
         f"p dnf {n} 1", f"p cnf {n}", ""]
    ))
    lines = [header] + [" ".join(map(str, c)) + " 0" for c in clauses]
    junk = draw(st.sampled_from(["", "c note", "0", "x", f"{n + 1} 0", "1", "-"]))
    lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines).encode()


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80).map(str.encode)
_tokens = st.lists(st.sampled_from(["p", "cnf", "c", "0", "1", "-1", "2", "3", "\n", "x"]),
                   max_size=30).map(lambda toks: " ".join(toks).encode())


@settings(max_examples=150, deadline=None)
@given(st.one_of(_dimacs_like(), _text, _tokens, st.binary(max_size=40)))
def test_compile_cnf_fuzz_exit_codes(data):
    # Any input ends in a documented exit code, never a raw exception.
    with tempfile.TemporaryDirectory() as tmp:
        dimacs = os.path.join(tmp, "f.cnf")
        with open(dimacs, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["compile-cnf", "--dimacs", dimacs, "--out", os.path.join(tmp, "m.json")])
    assert code in (0, 1, 2, 3)


@st.composite
def _order_files(draw):
    """five_node order files: a permuted subset of its variables (sometimes
    with the targets A, B moved last), plus repeats, unknown names and
    headers."""
    kept = draw(st.permutations("ABCDE"))[: draw(st.integers(0, 5))]
    if draw(st.booleans()):
        kept = [n for n in kept if n not in "AB"] + [n for n in kept if n in "AB"]
    lines = list(kept)
    extras = st.sampled_from(["A", "C", "D", "Z", "#constrained: A,B", "#constrained: C", "# c"])
    for line in draw(st.lists(extras, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_order_files(), st.sampled_from(["map", "rmap"]), st.sampled_from(["", "C=c1", "D=d0"]))
def test_order_file_fuzz_exit_codes(order_text, command, e2):
    # A caller order must cover an ancestrally closed set containing the
    # targets and evidence; any other file ends in a documented exit code.
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "five_node.json")
        shutil.copy(fixture_path("five_node.json"), model)
        order = os.path.join(tmp, "order.txt")
        with open(order, "w") as fh:
            fh.write(order_text)
        args = [command, "--model", model, "--targets", "A,B", "--order", order, "--trace"]
        args += ["--e", "E=e0"] if command == "map" else ["--e1", "E=e0", "--e2", e2]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    assert code in (0, 1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(st.none() | st.tuples(st.integers(2, 5), st.integers(0, 20)), st.data())
def test_width_fuzz_exit_codes(generated, data):
    # five_node or a small generated model, with generated unit lists, order
    # sources, world counts and objectives whose terms carry treatments,
    # outcomes and evidence on endogenous variables. Half the inputs are well
    # formed; the others may hold repeats, blanks, unknown names and options
    # that clash. Every bound width checks is proven, so any input ends in
    # exit code 0, 1 or 2: a 3 is a fault.
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if generated is None:
                shutil.copy(fixture_path("five_node.json"), model)
            else:
                n, seed = generated
                assert main(["gen", "--kind", "random", "--n", str(n), "--seed", str(seed), "--out", model]) == 0
        with open(model) as fh:
            doc = json.load(fh)
        names = [v["name"] for v in doc["variables"]]
        states = {v["name"]: v["states"] for v in doc["variables"]}
        roots = [name for name in names if not doc["parents"][name]]
        endo = [name for name in names if doc["parents"][name]]
        well_formed = data.draw(st.booleans())
        name = st.sampled_from(names)
        unit = st.sampled_from(roots)
        if not well_formed:
            name |= st.sampled_from(["Z", "", " "])
            unit |= name
        units = st.lists(unit, min_size=well_formed, max_size=4, unique=well_formed)
        unit_list = data.draw(units)
        args = ["width", "--model", model]
        if data.draw(st.booleans()):
            args += ["--units", ",".join(unit_list)]
        order = data.draw(st.sampled_from(["minfill", "exhaustive", "file"]))
        if order == "file":
            lines = data.draw(st.permutations(names))
            if well_formed:
                lines = [n for n in lines if n not in unit_list] + [n for n in lines if n in unit_list]
            else:
                for line in data.draw(st.lists(name, max_size=2)):
                    lines.insert(data.draw(st.integers(0, len(lines))), line)
                if data.draw(st.booleans()):
                    lines.insert(0, "#constrained: " + ",".join(data.draw(st.lists(name, max_size=3))))
            order = os.path.join(tmp, "order.txt")
            with open(order, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        args += ["--order", order]
        with_objective = data.draw(st.booleans())
        lifted = None if with_objective and well_formed else data.draw(st.none() | st.integers(-1, 3))
        if lifted is not None:
            args += ["--lifted", str(lifted)]
        if with_objective:

            def assignment(pool, max_size):
                chosen = data.draw(st.lists(pool, max_size=max_size, unique=well_formed))
                return {n: data.draw(st.sampled_from(states.get(n, ["0"]))) for n in chosen}

            terms = []
            for weight in data.draw(st.sampled_from([(1.0,), (0.5, 0.5)])):
                inner = st.sampled_from(endo) if well_formed and endo else name
                term = {"weight": weight, "y": assignment(inner, 1), "w": assignment(inner, 1),
                        "e": assignment(inner, 2)}
                others = [n for n in endo if n not in term["y"] and n not in term["w"]]
                if well_formed and others:  # treatments apart from the outcomes
                    inner = st.sampled_from(others)
                if others or not well_formed:
                    term.update(x=assignment(inner, 1), v=assignment(inner, 1))
                terms.append(term)
            objective = {
                "units": unit_list if well_formed else data.draw(st.just(unit_list) | units),
                "terms": terms,
            }
            path = os.path.join(tmp, "objective.json")
            with open(path, "w") as fh:
                json.dump(objective, fh)
            args += ["--objective", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    assert code in (0, 1, 2)


_bad_weights = st.sampled_from([0, 2, -1.0, float("nan"), "x", None, [1]])


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(2, 6), st.integers(0, 20)), st.data())
def test_query_fuzz_exit_codes(generated, data):
    # solve, map, rmap, gen and build-objective-model on a small generated
    # model. Targets, evidence and objectives are valid, or carry one flaw: a
    # repeated, unknown or non-root unit or target, a bad state or a bad
    # weight. Any of them ends in a documented exit code.
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        n, seed = generated
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["gen", "--kind", "random", "--n", str(n), "--seed", str(seed), "--out", model]) == 0
        with open(model) as fh:
            doc = json.load(fh)
        states = {v["name"]: v["states"] + ["9"] for v in doc["variables"]}
        roots = [name for name in states if not doc["parents"][name]]
        endo = [name for name in states if doc["parents"][name]]
        flaw = data.draw(st.sampled_from([None, None, "repeat", "unknown", "nonroot", "state", "weight"]))

        def pick(pool, min_size=0):
            return data.draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=2, unique=True))

        def inst(names):
            # The state "9" exists in no model: only the "state" flaw uses it.
            return {v: data.draw(st.sampled_from(states[v][:-1])) for v in names}

        def flawed(names):
            extra = {"repeat": names[:1], "unknown": ["Z"], "nonroot": endo[:1]}
            return names + extra.get(flaw, [])

        command = data.draw(st.sampled_from(["solve", "map", "rmap", "gen", "build-objective-model"]))
        if command == "gen":
            kind = data.draw(st.sampled_from(["random", "tight"]))
            args = ["gen", "--kind", kind, "--n", str(data.draw(st.integers(-1, 6))),
                    "--seed", str(seed), "--max-parents", str(data.draw(st.integers(-1, 4))),
                    "--out", os.path.join(tmp, "gen.json")]
            if data.draw(st.booleans()):
                args += ["--objective-out", os.path.join(tmp, "gen_objective.json")]
        elif command in ("map", "rmap"):
            evidence = inst(pick(endo))
            if flaw == "state" and evidence:
                evidence[next(iter(evidence))] = "9"
            text = [f"{v}={s}" for v, s in evidence.items()]
            cut = data.draw(st.integers(0, len(text)))
            args = [command, "--model", model, "--targets", ",".join(flawed(pick(roots, 1)))]
            if command == "map":
                args += ["--e", ",".join(text)]
            else:
                args += ["--e1", ",".join(text[:cut]), "--e2", ",".join(text[cut:])]
        else:
            units = flawed(pick(roots, 1))
            terms = []
            count = data.draw(st.integers(1, 2))
            for _ in range(count):
                chosen = data.draw(st.permutations(endo))[:2]
                term = {"weight": 1.0 / count, "y": inst(chosen[:1])}
                if len(chosen) > 1:
                    term[data.draw(st.sampled_from("xvwe"))] = inst(chosen[1:])
                terms.append(term)
            if flaw == "state":
                terms[0]["y"] = {v: "9" for v in terms[0]["y"]}
            if flaw == "weight":
                terms[0]["weight"] = data.draw(_bad_weights)
            objective = os.path.join(tmp, "objective.json")
            with open(objective, "w") as fh:
                json.dump({"units": units, "terms": terms}, fh)
            args = [command, "--model", model, "--objective", objective]
            if command == "solve":
                args += ["--method", data.draw(st.sampled_from(["ve", "brute"]))]
                if data.draw(st.booleans()):
                    args.append("--json")
                if data.draw(st.booleans()):
                    # Objective-model names when the objective builds, with
                    # the units moved last or not.
                    om = os.path.join(tmp, "om.json")
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        built = main(["build-objective-model", "--model", model,
                                      "--objective", objective, "--out", om]) == 0
                    names = list(states)
                    if built:
                        with open(om) as fh:
                            names = [v["name"] for v in json.load(fh)["variables"]]
                    names = data.draw(st.permutations(names))
                    if data.draw(st.booleans()):
                        names = [v for v in names if v not in units] + [v for v in names if v in units]
                    order = os.path.join(tmp, "order.txt")
                    with open(order, "w") as fh:
                        fh.write("#constrained: " + ",".join(units) + "\n" + "\n".join(names) + "\n")
                    args += ["--order", order]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    assert code in (0, 1, 2, 3)


def test_non_numbers_are_refused(capsys, tmp_path):
    # A JSON true or string once loaded as a number and solved with exit 0,
    # and an object in a CPT printed a raw TypeError traceback.
    model = tmp_path / "model.json"
    assert main(["gen", "--kind", "random", "--n", "4", "--seed", "1", "--out", str(model)]) == 0
    good = json.loads(model.read_text())
    objective = tmp_path / "objective.json"
    term = {"x": {"X2": "0"}, "y": {"X4": "1"}}
    for weight in (True, "1.0", None, {"w": 1}):
        objective.write_text(json.dumps({"units": ["X1"], "terms": [{"weight": weight, **term}]}))
        capsys.readouterr()
        assert main(["solve", "--model", str(model), "--objective", str(objective)]) == 1
        assert capsys.readouterr().err == f"error: term 1: weight {weight!r} is not a number\n"
    objective.write_text(json.dumps({"units": ["X1"], "terms": [{"weight": 1.0, **term}]}))
    bad = tmp_path / "bad.json"
    for cpt in ([True, False], ["0.5", "0.5"], {"p": 1}):
        bad.write_text(json.dumps({**good, "cpts": {**good["cpts"], "X1": cpt}}))
        for args in (["solve", "--objective", str(objective)], ["width"]):
            capsys.readouterr()
            assert main([args[0], "--model", str(bad), *args[1:]]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: CPT of 'X1'") and "Traceback" not in err


def test_gen_refuses_max_parents_below_one(capsys):
    for value in ("0", "-1"):
        capsys.readouterr()
        assert main(["gen", "--kind", "random", "--n", "3", "--max-parents", value]) == 1
        assert capsys.readouterr().err == "error: max_parents must be >= 1\n"


def test_gen_refuses_a_negative_seed(capsys):
    # numpy's "expected non-negative integer" once surfaced as the message.
    assert main(["gen", "--kind", "random", "--n", "5", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


def test_gen_random_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--kind", "random", "--n", "8", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen", "--kind", "random", "--n", "8", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_objective_model_roundtrips(capsys, two_node, observe_v1_objective, tmp_path):
    out = tmp_path / "om.json"
    code = main([
        "build-objective-model", "--model", str(two_node),
        "--objective", str(observe_v1_objective), "--out", str(out),
    ])
    assert code == 0
    from unitsel import load_model

    om = load_model(out.read_bytes(), allow_nonfunctional=True)
    names = {v.name for v in om.variables}
    assert "H" in names and "[V^1]" in names


def test_solve_with_order_file_over_objective_model(capsys, two_node, observe_v1_objective, tmp_path):
    # The order file names objective-model variables; constrained on U.
    order = tmp_path / "order.txt"
    order.write_text("#constrained: U\n[V^1]\nH\nU\n")
    code = main([
        "solve", "--model", str(two_node), "--objective",
        str(observe_v1_objective), "--order", str(order), "--json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unit"] == {"U": "u1"} and abs(doc["value"] - 0.6) < 1e-12


def test_bench_deterministic_bytes(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('[{"n": 8, "ur": 0.5, "trials": 2}]')
    outs = []
    for name in ("x.csv", "y.csv"):
        path = tmp_path / name
        assert main([
            "bench", "--config", str(cfg), "--seed", "7", "--out", str(path),
        ]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[0] == "n,n2,R,ur,n1,w,w1,w2"


@pytest.mark.parametrize("prior", ["[1.5, -0.5]", "[NaN, NaN]"])
def test_non_probability_prior_is_refused_on_load(capsys, two_node, observe_v1_objective, tmp_path, prior):
    # width and build-objective-model once exited 0 on these priors.
    doc = json.loads(two_node.read_text())
    text = json.dumps(doc).replace(json.dumps(doc["cpts"]["U"]), prior)
    model = tmp_path / "bad.json"
    model.write_text(text)
    for args in (["width", "--model", str(model)],
                 ["build-objective-model", "--model", str(model), "--objective", str(observe_v1_objective)]):
        assert main(args) == 1
        assert "is negative, infinite or NaN" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    '[{"x": 1}]', '[{"n": "a"}]', '[5]', '{}', '[]', '[{"n": 4, "trials": 0}]',
    '[{"n": 4, "ur": "0.5"}]', '[{"n": 4, "max_parents": 1.5}]', '[{"n": true}]',
])
def test_bench_refuses_malformed_configs(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["bench", "--config", str(cfg), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_bench_refuses_zero_trials(capsys):
    assert main(["bench", "--trials", "0"]) == 1
    assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"\xff", b"[1,", b"[" * 100_000],
                         ids=["undecodable", "malformed", "too-deep"])
def test_unreadable_json_documents_exit_1(capsys, two_node, tmp_path, data):
    # Undecodable bytes and malformed bench configs once gave a bare decoder
    # message, and deep nesting a raw RecursionError traceback.
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    for args, what in ((["width", "--model", str(bad)], "model"),
                       (["solve", "--model", str(two_node), "--objective", str(bad)], "objective"),
                       (["bench", "--config", str(bad)], "bench config")):
        assert main(args) == 1, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: malformed {what} document: "), args


_bench_entries = st.fixed_dictionaries(
    {"n": st.integers(2, 6)},
    optional={"max_parents": st.integers(-1, 3), "ur": st.sampled_from([0.0, 0.4, 1.0, 1.5])},
)
_bad_bench_entries = st.sampled_from(
    [5, None, "n", [], {}, {"x": 1}, {"n": "a"}, {"n": 3.0}, {"n": 3, "trials": 0},
     {"n": 3, "trials": 1, "ur": None}, {"n": True, "trials": 1}]
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(_bench_entries, max_size=3),
                 st.lists(_bench_entries | _bad_bench_entries, max_size=3),
                 st.sampled_from([{}, 5, "x", None])))
def test_bench_fuzz_exit_codes(config):
    # Tiny configs of one trial each, mixed with flawed entries or replaced
    # by a non-list; any of them ends in a documented exit code.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["bench", "--config", path, "--seed", "3", "--trials", "1"])
    assert code in (0, 1, 2, 3)
