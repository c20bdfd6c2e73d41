"""The experiment scripts under scripts/, run in-process through their main."""
import importlib.util
import json
import pathlib

import pytest

from conftest import run_blocked

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, flag", [
    ("contamination_report", ["--steps", "0"], "--steps"),
    ("contamination_report", ["--steps", "-3"], "--steps"),
    ("fidelity_vs_pump", ["--steps", "0"], "--steps"),
    ("fidelity_vs_pump", ["--tau2-min", "0"], "--tau2-min"),
    ("fidelity_vs_pump", ["--tau2-min", "-0.001"], "--tau2-min"),
    ("fidelity_vs_pump", ["--tau2-max", "1"], "--tau2-max"),
    ("fidelity_vs_pump", ["--tau2-max", "nan"], "--tau2-max"),
    ("fidelity_vs_pump", ["--steps", "1", "--etas", "1.5"], "--etas"),
    ("fidelity_vs_pump", ["--etas", "nan"], "--etas"),
    ("fidelity_vs_pump", ["--order", "0"], "--order"),
    ("fidelity_vs_pump", ["--order", "-1"], "--order"),
    ("fidelity_vs_pump", ["--order", "11"], "--order"),
])
def test_bad_arguments_exit_2(name, argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be" in captured.err


def test_contamination_report_one_step_is_eta_0_1(capsys):
    assert load("contamination_report").main(["--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.strip().startswith("0.")]
    # one row in each of the two tables
    assert [row[0] for row in rows] == ["0.10", "0.10"]


def test_fidelity_vs_pump_one_step_is_tau2_min(capsys):
    argv = ["--steps", "1", "--tau2-min", "0.01", "--etas", "1", "0.5"]
    assert load("fidelity_vs_pump").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("tau2,eta,event,")
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("0.01", "1", "event1"), ("0.01", "1", "event2"),
        ("0.01", "0.5", "event1"), ("0.01", "0.5", "event2"),
    ]


def test_fidelity_vs_pump_eta_0_writes_empty_fidelity_cells(capsys):
    # at eta = 0 no detector clicks, so both events are impossible
    assert load("fidelity_vs_pump").main(["--etas", "0", "--steps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau2,eta,event,probability,fidelity_favored,order1_fidelity_eta1"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:5] for row in rows] == [["0.0001", "0", "event1", "0", ""],
                                         ["0.0001", "0", "event2", "0", ""]]


def test_fidelity_vs_pump_order_defaults_to_1(capsys):
    argv = ["--steps", "3", "--etas", "1", "0.5"]
    script = load("fidelity_vs_pump")
    assert script.main(argv) == 0
    default = capsys.readouterr().out
    assert script.main(argv + ["--order", "1"]) == 0
    assert capsys.readouterr().out == default


def test_fidelity_vs_pump_high_order_reaches_the_converged_fidelity(capsys):
    # at eta = 1 the favored fidelity converges to 1 - tau2; order 1 gives
    # 1/(1 + tau2/2), which the last column keeps at every order
    argv = ["--steps", "1", "--tau2-min", "0.01", "--etas", "1"]
    script = load("fidelity_vs_pump")
    for order, want in ((1, 1.0 / 1.005), (10, 0.99)):
        assert script.main(argv + ["--order", str(order)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[2] for row in rows] == ["event1", "event2"]
        for row in rows:
            assert float(row[4]) == pytest.approx(want, abs=1e-12)
            assert float(row[5]) == pytest.approx(1.0 / 1.005, abs=1e-12)


def test_scripts_print_the_same_with_numpy_scipy_and_dataclasses_blocked(capsys):
    runs = [("contamination_report", ["--steps", "3"]),
            ("fidelity_vs_pump", ["--steps", "3"]),
            ("fidelity_vs_pump", ["--steps", "3", "--order", "4"]),
            ("fidelity_vs_pump", ["--steps", "1", "--etas", "0"])]
    done = run_blocked([[str(SCRIPTS / f"{name}.py"), *argv] for name, argv in runs])
    assert done.returncode == 0, done.stderr
    want = []
    for name, argv in runs:
        assert load(name).main(argv) == 0
        want.append(capsys.readouterr().out)
    assert json.loads(done.stdout) == want
