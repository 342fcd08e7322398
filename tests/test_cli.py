import argparse
import ast
import inspect
import json
import math
import textwrap

import pytest

from hecu import acceptance, cli, horseshoe, inner, manifolds, separatrix
from hecu.cli import _parse_list, _parse_range, run
from hecu.model import FAILURE_KINDS, DomainError, SolveError


def test_parse_range_single():
    assert _parse_range("5") == [5.0]


def test_parse_range_span():
    assert _parse_range("4:8:1") == [4.0, 5.0, 6.0, 7.0]


def test_parse_range_rejects_garbage():
    with pytest.raises(DomainError):
        _parse_range("4:8")
    with pytest.raises(DomainError):
        _parse_range("8:4:1")


def test_parse_list():
    assert _parse_list("1e-4, 2e-4") == [1e-4, 2e-4]


@pytest.mark.parametrize("parse, text", [
    (_parse_range, ""), (_parse_range, "4:x:1"), (_parse_range, "abc"),
    (_parse_list, "abc"), (_parse_list, "5 x"), (_parse_range, "inf"), (_parse_list, "1e-3 nan"),
])
def test_parse_rejects_a_token_that_is_not_a_number(parse, text):
    # nan and inf are numbers to float(), but no solve can run on them
    with pytest.raises(DomainError, match="not a finite number"):
        parse(text)


def test_unknown_flag_exits_2(tmp_path, capsys):
    code = run(["melnikov", "--nuI0", "5", "--bogus"])
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_melnikov_csv(tmp_path):
    out = tmp_path / "m"
    code = run(["melnikov", "--nuI0", "5", "--kmax", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "melnikov.csv").read_text().strip().split("\n")
    assert lines[0] == "k,nuI0,closed_re,closed_im,quad_re,quad_im,rel_err"
    assert len(lines) == 3
    k1 = lines[1].split(",")
    expect = -(math.pi * 5 * 0.03 / 4) * math.exp(-5.0) * 1.2
    assert float(k1[2]) == pytest.approx(expect, rel=1e-12)
    assert float(k1[6]) < 1e-8
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "melnikov"
    assert "melnikov.csv" in manifest["outputs"]


def test_melnikov_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["melnikov", "--nuI0", "3:6:1", "--out", str(out1)])
    run(["melnikov", "--nuI0", "3:6:1", "--out", str(out2)])
    b1 = (out1 / "melnikov.csv").read_bytes()
    b2 = (out2 / "melnikov.csv").read_bytes()
    assert b1 == b2
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_melnikov_with_config(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[physical]\nr = 0.12, 0.016\nalpha = 1.1\n")
    out = tmp_path / "m"
    code = run(["melnikov", "--nuI0", "5", "--config", str(cfg),
                "--out", str(out)])
    assert code == 0
    row = (out / "melnikov.csv").read_text().strip().split("\n")[1].split(",")
    # doubled r1 doubles L_1
    expect = -(math.pi * 5 * 0.06 / 4) * math.exp(-5.0) * 1.2
    assert float(row[2]) == pytest.approx(expect, rel=1e-12)
    # the manifest holds the surface the run used, apart from the checksummed
    # outputs: a later edit of the file does not erase it
    manifest = json.loads((out / "run_manifest.json").read_text())
    surface = manifest["resolved"]["surface"]
    assert surface == {"D": 6.35, "a": 3.6, "alpha": 1.1, "m": 4.002602,
                       "corrugation": {"cos_coeffs": [0.12, 0.016], "sin_coeffs": [0.0, 0.0]},
                       "nu": (4 * math.pi / (3.6 * 1.1)) ** 2}
    assert set(manifest["outputs"]) == {"melnikov.csv"}


@pytest.mark.parametrize("text", [
    "[physical]\nr = 0.12\n\n[model]\nnuI0 = 9\nepsilon = 0.5\n",
    "[model]\nI0 = -1\n",
    "[physcial]\nalpha = 1.1\n",
    "[physical]\nalhpa = 1.1\n",
    "[physical]\na = inf\n",
    "[physical]\nalpha = 1e400\n",
    "[physical]\nm = abc\n",
    "[physical]\nr = 0.06, x\n",
    "[physical]\na = 1e300\n",
    "alpha = 1.1\n",
    "[physical]\nr = 0.06\ns = 0.06\n",
    "[physical]\na = 1e100\n",
    "[physical]\na = 1e60\n",
], ids=["model-section", "model-I0", "misspelt-section", "misspelt-key", "a-inf",
        "alpha-1e400", "m-abc", "r-abc", "a-nu-underflow", "no-section", "odd-corrugation",
        "a-1e100", "a-1e60"])
@pytest.mark.parametrize("argv", [
    ["melnikov", "--nuI0", "5"],
    ["splitting", "--nuI0", "5"],
    ["inner"],
    ["horseshoe", "--nuI0", "4.5"],
    ["oscillate", "--nuI0", "4.5"],
], ids=["melnikov", "splitting", "inner", "horseshoe", "oscillate"])
def test_bad_config_is_a_configuration_error(tmp_path, text, argv, capsys, monkeypatch):
    # the config file holds only the surface, [physical]; anything else in it
    # is rejected before any work and writes nothing.  So are sine
    # coefficients s, which the even-corrugation symmetries do not allow, and
    # an a alpha far from a surface's (the energy overflows at a = 1e100, and
    # the noise floor reads 0 at a = 1e60)
    def no_work(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in ((horseshoe, "setup_horseshoe"), (horseshoe, "oscillatory_demo"),
                         (inner, "solve_inner"), (manifolds, "unstable_sheet"),
                         (separatrix, "melnikov_coeff_closed")):
        monkeypatch.setattr(module, name, no_work)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(text)
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_splitting_csv(tmp_path):
    out = tmp_path / "s"
    code = run(["splitting", "--nuI0", "4", "--epsilon", "1e-4",
                "--out", str(out)])
    assert code == 0
    lines = (out / "splitting.csv").read_text().strip().split("\n")
    assert lines[0] == "nuI0,epsilon,u,k,ampJ,phaseJ,ampP,phaseP,noise_floor"
    row = lines[1].split(",")
    pred = 2e-4 * (math.pi * 4 * 0.03 / 4) * math.exp(-4.0) * 1.25
    assert float(row[4]) == pytest.approx(pred, rel=0.01)
    manifest = json.loads((out / "run_manifest.json").read_text())
    counters = manifest["counters"]
    assert set(counters) == {"steps", "rejected_steps", "rhs_calls", "polish_residual"}
    assert counters["steps"] > 0 and counters["rhs_calls"] > counters["steps"]
    assert counters["polish_residual"] <= 1e-12
    assert set(manifest["outputs"]) == {"splitting.csv"}


def test_horseshoe_manifest_counts_return_maps(tmp_path):
    out = tmp_path / "h"
    assert run(["horseshoe", "--samples", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) == {"horseshoe_report.txt", "cone_samples.csv"}
    counters = manifest["counters"]
    setup, strips, cones = counters["setup"], counters["strips"], counters["cones"]
    assert set(setup) == {"fibers", "walk", "orientation"}
    # set-up health: the residual of the W^u trace fit, the trace crossings
    assert math.isfinite(counters["trace_residual"]) and counters["trace_residual"] >= 0.0
    assert isinstance(counters["n_crossings"], int) and counters["n_crossings"] >= 1
    assert setup["fibers"]["lane_maps"] == 64 and setup["fibers"]["batches"] == 1
    assert strips["lane_maps"] == 6 * 24 and strips["batches"] == 1
    assert 0.0 <= counters["edge_error"] <= 3e-7
    assert cones["batches"] == 1
    assert cones["lane_maps"] == 3 * (4 * 5) + 3 * 12
    for phase in (*setup.values(), strips, cones):
        assert phase["work"]["steps"] > 0 and phase["work"]["rejected_steps"] >= 0
        assert set(phase["failures"]) <= {"escape", "timeout", "underflow", "polish", "domain"}
    lines = counters["cone_v_lines"]
    assert sum(line["samples"] for line in lines) == 20 and not cones["failures"]
    assert all(0.0 <= line["pass_rate"] <= 1.0 for line in lines)
    report = (out / "horseshoe_report.txt").read_text()
    assert "fd_agreement (worst relative disagreement of h and h/4 Jacobians): " in report
    assert "%" not in report.split("fd_agreement")[1].splitlines()[0]


def test_sweep_counters_sum_sheets(tmp_path):
    out = tmp_path / "w"
    code = run(["sweep", "--nuI0", "4:8:1", "--epsilon", "1e-4", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    # four sheets of about 46 shared steps each
    assert 4 * 30 <= manifest["counters"]["steps"] <= 4 * 80
    assert set(manifest["outputs"]) == {"sweep.csv"}


def test_inner_csv(tmp_path):
    out = tmp_path / "i"
    code = run(["inner", "--epsilon", "1e-3", "--kmax", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "inner.csv").read_text().strip().split("\n")
    assert lines[0] == "epsilon,k,f_re,f_im,err_est,theta_V,residual"
    row = lines[1].split(",")
    assert float(row[2]) == pytest.approx(-math.pi * 0.06 / 8 * 1e-3, rel=0.01)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) == {"inner.csv"}
    picard = manifest["counters"]["picard"]["0.001"]
    assert set(picard) == {"8", "9", "10", "11", "12", "14", "16"}
    for depth in picard.values():
        assert depth["iterations"] >= 2
        assert depth["residual"] <= 1e-12
        assert 0.0 < depth["contraction_ratio"] < 0.9
    # the depth-12 solve of the theta_V column is the one extract_fk used
    assert picard["12"]["residual"] == float(row[6])


def test_inner_prints_f1_of_the_last_epsilon(tmp_path, capsys):
    # the printed f1/eps is the k = 1 row of the last epsilon, not its k = kmax row
    out = tmp_path / "i"
    assert run(["inner", "--epsilon", "1e-3,2e-3", "--kmax", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.split("f1/eps = ")[1].split(";")[0]
    rows = [line.split(",") for line in (out / "inner.csv").read_text().strip().split("\n")[1:]]
    f1 = [float(row[2]) for row in rows if float(row[0]) == 2e-3 and row[1] == "1"]
    assert len(rows) == 4 and len(f1) == 1
    assert printed == f"{f1[0] / 2e-3:.8f}"


def test_inner_prints_the_variants_of_the_surface_r1(tmp_path, capsys):
    # the paper's variants take r1 of the loaded surface, and f1/eps follows it
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[physical]\nr = 0.1\n")
    assert run(["inner", "--epsilon", "1e-3", "--kmax", "1", "--config", str(cfg),
                "--out", str(tmp_path / "i")]) == 0
    printed = capsys.readouterr().out
    assert ("paper variants: pi r1/2 = 0.15707963, pi r1/4 = 0.07853982, "
            "Melnikov-implied pi r1/8 = 0.03926991") in printed
    f1 = float(printed.split("f1/eps = ")[1].split(";")[0])
    assert f1 == pytest.approx(-math.pi * 0.1 / 8, rel=0.01)


def test_inner_manifest_counts_weight_tables(tmp_path):
    # the second epsilon solves on the lines and weight tables of the first
    inner._solver_line.cache_clear()
    out = tmp_path / "i"
    assert run(["inner", "--epsilon", "1e-3,2e-3", "--kmax", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    tables = manifest["counters"]["filon_tables_built"]
    # five lines for the seven default depths, |k| <= 8 on each
    assert 0 < tables["0.001"] <= 45
    assert tables["0.002"] == 0
    assert set(manifest["outputs"]) == {"inner.csv"}


def test_help_exits_zero():
    assert run(["--help"]) == 0


def _args_read(fn) -> set[str]:
    """`args.<name>` attributes fn reads, following cli helpers it hands args to."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "args"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            names |= _args_read(getattr(cli, node.func.id))
    return names


def test_every_flag_is_read():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        flags = {a.dest for a in p._actions if a.dest != "help"}
        unread = flags - _args_read(p.get_default("fn"))
        assert not unread, f"{name} accepts {sorted(unread)} and never reads them"


@pytest.mark.parametrize("argv", [
    ["melnikov", "--nuI0", "5", "--tol", "1e-3"],
    ["sweep", "--nuI0", "4:8:1", "--config", "model.cfg"],
    ["horseshoe", "--config", "model.cfg"],
    ["oscillate", "--config", "model.cfg"],
], ids=["melnikov-tol", "sweep-config", "horseshoe-config", "oscillate-config"])
def test_ignored_input_exits_2(tmp_path, argv):
    # horseshoe and oscillate refuse --config without --nuI0 before any set-up
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["inner", "--kmax", "0"],
    ["horseshoe", "--samples", "0"],
    ["inner", "--modes", "0", "--kmax", "1"],
    ["inner", "--modes", "1", "--kmax", "2"],
    ["splitting", "--nuI0", "5", "--kmax", "0"],
    ["melnikov", "--nuI0", "5", "--kmax", "0"],
    ["splitting", "--nuI0", "5", "--modes", "0"],
    ["oscillate", "--k", "0"],
    ["inner", "--epsilon", ","],
    ["splitting", "--nuI0", "5", "--epsilon", ","],
], ids=["inner-kmax-0", "horseshoe-samples-0", "inner-modes-0", "inner-kmax-above-modes",
        "splitting-kmax-0", "melnikov-kmax-0", "splitting-modes-0", "oscillate-k-0",
        "inner-epsilon-empty", "splitting-epsilon-empty"])
def test_empty_count_flag_is_a_configuration_error(tmp_path, argv, capsys, monkeypatch):
    # no mode to extract or to solve with, no cone sample to draw, no leg
    # to shadow, no epsilon to run at: the flag is at fault, not the solves
    # or the passages, and it is rejected before a horseshoe set-up runs
    def no_setup(params):
        raise AssertionError("a set-up ran")

    monkeypatch.setattr(horseshoe, "setup_horseshoe", no_setup)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify-all", "--only", "13"],
    ["verify-all", "--only", "x"],
    ["verify-all", "--only", "2,13"],
    ["melnikov", "--nuI0", ""],
    ["melnikov", "--nuI0", "4:x:1"],
    ["splitting", "--nuI0", "5", "--epsilon", "abc"],
], ids=["only-13", "only-x", "only-2-13", "melnikov-nuI0-empty", "melnikov-nuI0-range-x",
        "splitting-epsilon-abc"])
def test_unparseable_input_is_a_configuration_error(tmp_path, argv, capsys, monkeypatch):
    # rejected before any criterion or computation runs
    monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: pytest.fail("criteria ran"))
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["splitting", "--nuI0", "5", "--u", "nan"],
    ["splitting", "--nuI0", "5", "--u", "inf"],
    ["splitting", "--nuI0", "5", "--tol", "nan"],
    ["splitting", "--nuI0", "5", "--tol", "0"],
    ["sweep", "--nuI0", "4:8:1", "--u=-inf"],
    ["sweep", "--nuI0", "4:8:1", "--tol=-1e-11"],
    ["inner", "--tol", "inf"],
    ["oscillate", "--zret", "nan"],
], ids=["splitting-u-nan", "splitting-u-inf", "splitting-tol-nan", "splitting-tol-0",
        "sweep-u-minus-inf", "sweep-tol-negative", "inner-tol-inf", "oscillate-zret-nan"])
def test_non_finite_float_flag_is_a_configuration_error(tmp_path, argv, capsys, monkeypatch):
    # nan or inf in a float flag would reach the solves, which fail late, run
    # without end or write a CSV of nans: it is rejected before any work
    def no_work(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in ((horseshoe, "setup_horseshoe"), (horseshoe, "oscillatory_demo"),
                         (inner, "solve_inner"), (manifolds, "unstable_sheet"),
                         (manifolds, "splitting_sweep")):
        monkeypatch.setattr(module, name, no_work)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_oscillate_end_to_end(tmp_path):
    out = tmp_path / "o"
    assert run(["oscillate", "--out", str(out)]) == 0
    lines = (out / "oscillate.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x,z,px,pz" and len(lines) == 1 + 2000 * 3
    t = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(t[:-1], t[1:]))
    assert (out / "oscillate_z.svg").read_text().startswith("<svg")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) == {"oscillate.csv", "oscillate_z.svg"}
    counters = manifest["counters"]
    assert counters["itinerary"]["symbols"] == [1, 2, 3]
    assert counters["itinerary"]["counts"] == [151, 152, 153]
    lift = counters["lift"]
    assert lift["runs"] == 3 and 0 < lift["steps"] < lift["rhs_calls"] <= 20000
    assert len(counters["arrival_gaps"]) == len(counters["height_law"]) == 3


def test_verify_all_manifest_holds_criterion_counters(tmp_path, monkeypatch):
    # each criterion's counters go into the manifest under its number, apart
    # from the checksummed outputs; criterion 11 records none
    counters = {"strips": {"batches": 1, "lane_maps": 144}, "shadow_return_maps": 93}
    monkeypatch.setitem(acceptance.ALL_CRITERIA, 9, lambda cache: acceptance.CriterionResult(
        9, "stand-in", True, "counted", {"counters": counters}))
    out = tmp_path / "v"
    assert run(["verify-all", "--only", "9,11", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == {"9": counters}
    assert set(manifest["outputs"]) == {"acceptance_report.txt", "acceptance.csv"}


def test_verify_all_manifest_holds_c8_corner_counters(tmp_path):
    # criterion 8's one corner batch records its integration work
    out = tmp_path / "v"
    assert run(["verify-all", "--only", "8", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    c8 = manifest["counters"]["8"]
    assert set(c8) == {"steps", "rejected_steps", "rhs_calls", "polish_residual"}
    assert c8["steps"] > 0 and c8["rhs_calls"] > c8["steps"] >= c8["rejected_steps"]
    assert 0.0 <= c8["polish_residual"] <= 1e-12


def test_manifest_clock_times_the_computation(tmp_path):
    out = tmp_path / "v"
    assert run(["verify-all", "--only", "11", "--out", str(out)]) == 0
    row = (out / "acceptance.csv").read_text().strip().split("\n")[1].split(",")
    manifest = json.loads((out / "run_manifest.json").read_text())
    # wall_clock_s is rounded to the millisecond
    assert manifest["wall_clock_s"] + 5e-4 >= float(row[2]) > 0.01


# each subcommand and the first solve it runs
FIRST_SOLVES = {
    "melnikov": (["--nuI0", "5"], separatrix, "melnikov_coeff_quadrature"),
    "splitting": (["--nuI0", "5"], manifolds, "unstable_sheet"),
    "sweep": (["--nuI0", "4:6:1"], manifolds, "splitting_sweep"),
    "inner": ([], inner, "solve_inner"),
    "horseshoe": (["--nuI0", "4.5"], horseshoe, "setup_horseshoe"),
    "oscillate": (["--nuI0", "4.5"], horseshoe, "setup_horseshoe"),
}


@pytest.mark.parametrize("kind", FAILURE_KINDS)
@pytest.mark.parametrize("command", sorted(FIRST_SOLVES))
def test_failed_solve_exits_3_in_one_line(tmp_path, command, kind, capsys, monkeypatch):
    # a classified failure is neither a crash (1) nor a configuration error
    # (2): one stderr line names its kind, and the run writes nothing
    flags, module, name = FIRST_SOLVES[command]

    def fail(*args, **kwargs):
        raise SolveError(kind, "stand-in failure")

    monkeypatch.setattr(module, name, fail)
    out = tmp_path / "out"
    assert run([command, *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"solve failed ({kind}): stand-in failure\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["splitting", "--nuI0", "1", "--epsilon", "1"], "Picard ratio 1.083 >= 0.9 at iteration 6"),
    (["inner", "--epsilon", "50", "--kmax", "1"], "Picard ratio 0.910 >= 0.9 at iteration 38"),
], ids=["splitting-nuI0-1", "inner-epsilon-50"])
def test_solve_past_the_contraction_limit_exits_3(tmp_path, argv, message, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"solve failed (non-contraction): {message}\n"
    assert not out.exists()


def test_a_failed_solve_in_a_criterion_names_its_kind(tmp_path, monkeypatch):
    # verify-all turns a raising criterion into a FAIL line, which names the kind
    def fail(cache):
        raise SolveError("timeout", "W^u fiber failed: timeout")

    monkeypatch.setitem(acceptance.ALL_CRITERIA, 9, fail)
    out = tmp_path / "v"
    assert run(["verify-all", "--only", "9", "--out", str(out)]) == 1
    assert (out / "acceptance_report.txt").read_text() == (
        "[FAIL] criterion  9: criterion 9 — raised SolveError (timeout): "
        "W^u fiber failed: timeout\n")
