import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swapsim import cli, protocols


def run_cli(argv):
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return code, out.getvalue()


def test_scheme_a_table_headline():
    code, text = run_cli(["scheme-a", "--tau2", "1e-3", "--eta", "1",
                          "--order", "1", "--format", "table"])
    assert code == 0
    assert "0.999500249875" in text
    assert "favored = psi+" in text


def test_scheme_a_zero_tau():
    code, text = run_cli(["scheme-a", "--tau2", "0", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(float(r["probability"]) == 0.0 for r in rows)


def test_tau_and_tau2_conflict():
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a", "--tau", "0.1", "--tau2", "0.01"])
    assert exc.value.code == 2


def test_missing_tau_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a"])
    assert exc.value.code == 2


def test_bad_param_exit_code():
    code, _ = run_cli(["scheme-b", "--epsilon", "1.5"])
    assert code == 2


def test_shots_beyond_int64_exits_2(capsys):
    # the counts are numpy's, which draws them as int64: shots keeps numpy's range
    code, text = run_cli(["scheme-a", "--tau2", "1e-3", "--shots", str(2**63)])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: shots must be in [1, 2**63 - 1]")


def test_verify_ok():
    code, text = run_cli(["scheme-b", "--epsilon", "0.1", "--verify"])
    assert code == 0
    assert "verify: ok" in text


def test_verify_phase_verify_checks_coincidence_tables(monkeypatch):
    code, text = run_cli(["verify-phase", "--tau2", "1e-3", "--order", "2", "--verify"])
    assert code == 0
    assert text.splitlines()[-1].startswith("verify: ok")
    from swapsim import oracle

    monkeypatch.setattr(oracle, "verify_phase_verification", lambda *args: 1e-6)
    code, _ = run_cli(["verify-phase", "--tau2", "1e-3", "--verify"])
    assert code == 3


# a valid argv for each subcommand without --shots; only verify-phase has --verify
NO_SHOTS_ARGV = {
    "theta": ["theta", "--theta", "0.3"],
    "bell-check": ["bell-check"],
    "postselect-pol": ["postselect-pol", "--eta", "0.9"],
    "postselect-vac": ["postselect-vac", "--eta", "0.8"],
    "verify-phase": ["verify-phase", "--tau2", "1e-3"],
}


def assert_usage_error(argv, flag, capsys):
    """argv exits 2 in the argument checks: nothing on stdout, ``flag`` named
    after the usage line of the subcommand that was run."""
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        cli.run(argv, out=out)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith(f"usage: swapsim {argv[0]} ")
    assert flag in err


def test_verify_unsupported(capsys):
    for scheme in ("theta", "bell-check", "postselect-pol", "postselect-vac"):
        assert_usage_error(NO_SHOTS_ARGV[scheme] + ["--verify"], "--verify", capsys)


def test_shots_unsupported(capsys):
    for argv in NO_SHOTS_ARGV.values():
        assert_usage_error(argv + ["--shots", "5"], "--shots", capsys)


@pytest.mark.parametrize("scheme, offered", [
    ("theta", ("--sweep",)), ("verify-phase", ("--verify", "--sweep")),
    ("scheme-a", ("--verify", "--shots", "--sweep")), ("bell-check", ()),
])
def test_help_offers_verify_and_shots_only_where_they_work(scheme, offered, capsys):
    # the sweep flags too: bell-check has nothing to sweep
    with pytest.raises(SystemExit) as exc:
        run_cli([scheme, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--verify", "--shots", "--sweep"):
        assert (flag in text) == (flag in offered), (scheme, flag)


def test_every_command_row_calls_its_functions_with_one_tuple(monkeypatch):
    # each named function is looked up when the command runs, so a recorder
    # bound on its module sees the call
    from swapsim import oracle, protocols

    argvs = {**NO_SHOTS_ARGV,
             "scheme-a": ["scheme-a", "--tau2", "1e-3", "--eta", "0.9", "--order", "2"],
             "scheme-b": ["scheme-b", "--epsilon", "0.2", "--pair-amplitude", "0.5",
                          "--order", "2", "--variant", "pbs"],
             "postselect-pol": ["postselect-pol", "--eta", "0.9", "--x-only"]}
    assert set(argvs) == set(cli.COMMANDS)
    for scheme, row in cli.COMMANDS.items():
        calls = []

        def recorder(fn):
            def record(*args):
                calls.append((fn.__name__, args))
                return fn(*args)
            return record

        named = [(protocols, row.report), (protocols, row.distribution), (oracle, row.check)]
        argv = list(argvs[scheme])
        if row.distribution:
            argv += ["--shots", "10"]
        if row.check:
            argv += ["--verify"]
        with monkeypatch.context() as m:
            for module, name in named:
                if name:
                    m.setattr(module, name, recorder(getattr(module, name)))
            assert run_cli(argv)[0] == 0, argv
        expected = [name for _, name in named if name]
        if row.check:  # which reads the row's report and distribution again
            expected += [name for _, name in named[:2] if name]
        assert [name for name, _ in calls] == expected
        assert len({args for _, args in calls}) == 1, calls
        assert len(calls[0][1]) == len(row.params)


def test_seed_checks(capsys):
    argv = ["scheme-a", "--tau2", "0.01", "--format", "json"]
    assert_usage_error(argv + ["--shots", "10", "--seed", "-1"], "--seed", capsys)
    assert_usage_error(argv + ["--seed", "3"], "--seed", capsys)
    assert_usage_error(argv + ["--shots", "0", "--seed", "3"], "--seed", capsys)
    assert run_cli(argv + ["--shots", "10"]) == run_cli(argv + ["--shots", "10", "--seed", "0"])


def test_table_columns_stay_separated():
    # 2.90923462489e-33 has 17 characters, more than its 16-wide column
    code, text = run_cli(["scheme-b", "--epsilon", "0.3", "--pair-amplitude", "0.5",
                          "--order", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[2] == "event                  probability       fid(psi+)       fid(psi-)"
    rows = [line.split() for line in lines if line.startswith(("d2_click ", "d3_click "))]
    assert rows == [["d2_click", "0.0918588509736", "0.661404877864", "2.90923462489e-33"],
                    ["d3_click", "0.0918588509736", "2.90923462489e-33", "0.661404877864"]]


@pytest.mark.parametrize("amplitude", ["5", "1", "-1", "-1.5"])
def test_pair_amplitude_outside_the_unit_interval_exits_2(amplitude, capsys):
    # the n-pair weights of such a source do not fall, so the printed values
    # would be set by --order alone
    code, text = run_cli(["scheme-b", "--epsilon", "0.5", f"--pair-amplitude={amplitude}",
                          "--order", "10"])
    assert (code, text) == (2, "")
    assert "|pair amplitude| must be < 1" in capsys.readouterr().err


def test_output_byte_stable():
    argv = ["scheme-a", "--tau2", "1e-3", "--format", "json",
            "--shots", "5000", "--seed", "11"]
    _, a = run_cli(argv)
    _, b = run_cli(argv)
    assert a == b
    data = json.loads(a)
    assert data["scheme"] == "scheme-a"
    assert sum(data["samples"].values()) == 5000


def test_csv_round_trip():
    code, text = run_cli(["scheme-b", "--epsilon", "0.2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {r["event"] for r in rows} == {"d2_click", "d3_click"}
    for r in rows:
        # values re-parse to the same 12-significant-digit figure
        assert f"{float(r['probability']):.12g}" == r["probability"]


def test_sweep_eta_on_verify_phase():
    code, text = run_cli(["verify-phase", "--tau2", "1e-3", "--sweep", "eta",
                          "--from", "0.2", "--to", "1.0", "--steps", "5"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    ideal = [r for r in rows if r["event"] == "ideal_d3"]
    assert len(ideal) == 5
    for r in ideal:
        assert float(r["probability"]) == pytest.approx(float(r["value"]), abs=1e-12)
    # ordered by value then event
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values)


def test_sweep_single_step_matches_single_run():
    _, swept = run_cli(["scheme-b", "--epsilon", "0", "--sweep", "epsilon",
                        "--from", "0.2", "--to", "0.9", "--steps", "1"])
    rows = list(csv.DictReader(io.StringIO(swept)))
    _, single = run_cli(["scheme-b", "--epsilon", "0.2", "--format", "csv"])
    srows = list(csv.DictReader(io.StringIO(single)))
    for r, s in zip(rows, srows):
        assert r["event"] == s["event"]
        assert r["probability"] == s["probability"]


def test_sweep_epsilon_log_slope():
    code, text = run_cli(["scheme-b", "--epsilon", "0", "--sweep", "epsilon",
                          "--from", "0.03", "--to", "0.3", "--steps", "3",
                          "--spacing", "log"])
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["event"] == "d2_click"]
    eps = np.array([float(r["value"]) for r in rows])
    infid = 1.0 - np.array([float(r["fidelity_psi_plus"]) for r in rows])
    slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
    assert abs(slope - 2.0) <= 0.1


@pytest.mark.parametrize("steps", ["1", "2"])
def test_log_spacing_rejects_nonpositive_endpoints_at_any_step_count(steps, capsys):
    assert_usage_error(["scheme-a", "--tau2", "0.1", "--sweep", "eta", "--from", "0",
                        "--to", "-5", "--steps", steps, "--spacing", "log"],
                       "log spacing needs strictly positive endpoints", capsys)


def test_sweep_point_is_checked_like_a_single_run(capsys):
    assert_usage_error(["scheme-a", "--tau2", "1e-3", "--sweep", "tau2", "--from", "-0.5",
                        "--to", "0.1", "--steps", "3"], "--tau2 must be >= 0", capsys)


def test_sweep_tau2_from_a_tau_run_matches_single_run():
    _, swept = run_cli(["scheme-a", "--tau", "0.5", "--sweep", "tau2",
                        "--from", "1e-3", "--to", "1e-3", "--steps", "1"])
    _, single = run_cli(["scheme-a", "--tau2", "1e-3", "--format", "csv"])
    rows = [r["probability"] for r in csv.DictReader(io.StringIO(swept))]
    assert rows == [r["probability"] for r in csv.DictReader(io.StringIO(single))]


def test_sweep_requires_range():
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a", "--tau2", "1e-3", "--sweep", "eta"])
    assert exc.value.code == 2


def test_all_schemes_run():
    for argv in (
        ["bell-check"],
        ["theta", "--theta", "0.3"],
        ["postselect-pol", "--eta", "0.9"],
        ["postselect-pol", "--eta", "0.9", "--x-only"],
        ["postselect-vac", "--eta", "0.8"],
        ["verify-phase", "--tau2", "1e-3"],
    ):
        code, text = run_cli(argv + ["--format", "json"])
        assert code == 0
        json.loads(text)


def test_import_cli_leaves_scipy_and_dataclasses_unloaded():
    # numpy and scipy are loaded only by --verify, not by --shots, whose
    # counts come from the stdlib port of numpy's sampler; the engine's
    # records import no dataclasses (nor, through it, inspect)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = textwrap.dedent("""\
        import io, sys
        sys.path.insert(0, sys.argv[1])
        import swapsim, swapsim.cli as cli
        for argv in (["bell-check"], ["theta", "--theta", "0.3"],
                     ["scheme-a", "--tau2", "1e-3", "--format", "json"],
                     ["verify-phase", "--tau2", "1e-3", "--format", "csv"]):
            assert cli.run(argv, out=io.StringIO()) == 0
        print(sorted(m for m in ("numpy", "scipy", "dataclasses") if m in sys.modules))
        assert cli.run(["scheme-a", "--tau2", "1e-3", "--shots", "10"], out=io.StringIO()) == 0
        print("numpy" in sys.modules, "scipy" in sys.modules)
        """)
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the child from
    # writing bytecode into the source tree
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "False False"]


@pytest.mark.parametrize("argv", [
    ["postselect-pol", "--double-pair-weight", "nan"],
    ["postselect-pol", "--eta", "inf"],
    ["postselect-vac", "--eta", "nan"],
    ["scheme-a", "--tau", "nan"],
    ["scheme-a", "--tau2", "inf"],
    ["scheme-a", "--tau2", "1e-3", "--eta", "NaN"],
    ["verify-phase", "--tau=-inf"],
    ["scheme-b", "--epsilon", "0.1", "--pair-amplitude", "nan", "--order", "2"],
    ["scheme-b", "--epsilon", "Infinity"],
    ["theta", "--theta", "nan"],
    ["scheme-a", "--tau2", "1e-3", "--sweep", "eta", "--from", "nan",
     "--to", "1", "--steps", "2"],
    ["scheme-a", "--tau2", "1e-3", "--sweep", "eta", "--from", "0.5",
     "--to", "inf", "--steps", "2"],
])
def test_non_finite_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e-400", "-1E-400"])
def test_float_text_that_rounds_to_0_exits_2(text, capsys):
    # a non-zero number too small for a float is not silently 0
    assert_usage_error(["scheme-a", f"--tau2={text}", "--eta", "1"],
                       "argument --tau2: rounds to 0", capsys)


@pytest.mark.parametrize("text, value", [("0", 0.0), ("-0.0", -0.0), ("0e5", 0.0),
                                         ("5e-324", 5e-324)])
def test_float_text_that_is_0_or_subnormal_parses(text, value):
    parsed = cli._finite_float(text)
    assert parsed == value and math.copysign(1.0, parsed) == math.copysign(1.0, value)


@pytest.mark.parametrize("argv, message", [
    (["scheme-a", "--tau2", "1e-3", "--sweep", "foo"], "cannot sweep"),
    (["scheme-a", "--tau2", "1e-3", "--sweep", "order"], "cannot sweep"),
    (["scheme-b", "--epsilon", "0.1", "--sweep", "pair_amplitude"], "cannot sweep"),
    (["postselect-vac", "--sweep", "theta"], "cannot sweep"),
    # bell-check offers no sweep flags at all
    (["bell-check", "--sweep", "eta"], "unrecognized arguments: --sweep eta --from 0.1"),
])
def test_unknown_sweep_param_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--from", "0.1", "--to", "0.9", "--steps", "3"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--verify"], ["--shots", "100"]])
def test_sweep_with_verify_or_shots_exits_2(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a", "--tau2", "1e-3", "--sweep", "eta", "--from", "0.5",
                 "--to", "1", "--steps", "2", *extra])
    assert exc.value.code == 2
    assert "--verify or --shots" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_sweep_with_a_format_other_than_csv_exits_2(fmt, capsys):
    argv = ["scheme-a", "--tau2", "1e-3", "--sweep", "eta", "--from", "0.5",
            "--to", "1", "--steps", "2"]
    assert_usage_error(argv + ["--format", fmt], f"--format {fmt}", capsys)
    assert run_cli(argv + ["--format", "csv"]) == run_cli(argv)


def test_option_table_declares_exactly_the_command_params():
    # a parameter without flags, or flags no subcommand takes, fails here
    used = {param for row in cli.COMMANDS.values() for param in row.params}
    assert used == set(cli.OPTIONS)


def test_scheme_b_shots_and_verify_use_pair_amplitude():
    argv = ["scheme-b", "--epsilon", "0.3", "--format", "json",
            "--shots", "1000", "--verify"]
    code, plain = run_cli(argv)
    assert code == 0
    code, paired = run_cli(argv + ["--order", "2", "--pair-amplitude", "0.5"])
    assert code == 0
    assert "verify: ok" in paired
    samples = [json.loads(text.split("verify:")[0])["samples"] for text in (plain, paired)]
    assert samples[0] != samples[1]


SWEEP = ["--sweep", "eta", "--from", "0.5", "--to", "1", "--steps", "2"]


@pytest.mark.parametrize("argv, flags", [
    (["scheme-b", "--epsilon", "0.3", "--order", "2"], ("--order", "--pair-amplitude")),
    (["scheme-b", "--epsilon", "0.3", "--order", "3", "--pair-amplitude", "0", *SWEEP],
     ("--order", "--pair-amplitude")),
    (["scheme-b", "--epsilon", "0.3", "--pair-amplitude", "0.5"], ("--pair-amplitude", "--order")),
    (["scheme-b", "--epsilon", "0.3", "--pair-amplitude=-1", "--order", "1", *SWEEP],
     ("--pair-amplitude", "--order")),
    (["postselect-pol", "--x-only", "--double-pair-weight", "0.5"],
     ("--double-pair-weight", "--x-only")),
    (["postselect-pol", "--double-pair-weight", "1", "--x-only", *SWEEP],
     ("--double-pair-weight", "--x-only")),
    (["scheme-a", "--tau2", "1e-3", "--shots", "10", "--format", "csv"],
     ("--shots", "--format csv")),
])
def test_flags_the_run_would_ignore_exit_2(argv, flags, capsys, monkeypatch):
    # rejected before any computation: no protocol function may run
    def forbidden(*args):
        raise AssertionError("computed before rejecting the flags")

    for name in ("run_scheme_b", "analyze_polarization_postselection", "scheme_b_state",
                 "run_scheme_a", "scheme_a_click_distribution", "sample_run"):
        monkeypatch.setattr(protocols, name, forbidden)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for flag in flags:
        assert flag in captured.err


def test_flags_the_run_uses_still_run():
    for argv in (["scheme-b", "--epsilon", "0.3", "--order", "1", "--pair-amplitude", "0"],
                 ["scheme-b", "--epsilon", "0.3", "--order", "2", "--pair-amplitude", "0.5"],
                 ["postselect-pol", "--double-pair-weight", "0.5"],
                 ["postselect-pol", "--x-only"]):
        assert run_cli(argv)[0] == 0, argv
    _, default = run_cli(["postselect-pol", "--format", "json"])
    assert json.loads(default)["params"]["double_pair_weight"] == 1.0


def test_negative_shots_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a", "--tau2", "1e-3", "--shots", "-5"])
    assert exc.value.code == 2
    assert "--shots" in capsys.readouterr().err
    code, text = run_cli(["scheme-a", "--tau2", "1e-3", "--shots", "0"])
    assert code == 0
    assert "samples" not in text


@pytest.mark.parametrize("flags", [
    ["--from", "0.1"], ["--to", "0.9"], ["--steps", "3"], ["--spacing", "linear"],
    ["--spacing", "log"], ["--from", "0.1", "--steps", "3"],
])
def test_sweep_flags_without_sweep_exit_2(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["scheme-a", "--tau2", "1e-3", *flags])
    assert exc.value.code == 2
    assert "only valid with --sweep" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["scheme-a", "--tau2", "1e-3", *SWEEP[:-1], "0"], "--steps must be >= 1"),
    (["scheme-a", "--tau2", "abc"], "argument --tau2: invalid float value: 'abc'"),
])
def test_a_zero_step_count_or_a_text_that_is_no_float_exits_2(argv, message, capsys):
    assert_usage_error(argv, message, capsys)


def test_sweep_spacing_defaults_to_linear():
    argv = ["scheme-a", "--tau2", "1e-3", "--sweep", "eta", "--from", "0.2",
            "--to", "1.0", "--steps", "3"]
    assert run_cli(argv) == run_cli(argv + ["--spacing", "linear"])


def test_the_order_limit_of_verify_phase_depends_on_tau2(capsys):
    # the limit is on a heralded branch's cutoff after BS(1, 2), which
    # pruning lowers: order 11 runs at tau2 = 0.01, and at tau2 = 0.1 the
    # cutoff reaches 22
    code, text = run_cli(["verify-phase", "--tau2", "0.01", "--order", "11"])
    assert code == 0 and "order=11" in text
    code, text = run_cli(["verify-phase", "--tau2", "0.1", "--order", "11"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == ("error: a mode would hold 22 photons, above the "
                                       "limit of 20\n")


# --------------------------------------------------------------------------
# The process entry point: main() flushes and ends with os._exit
# --------------------------------------------------------------------------

SRC = pathlib.Path(cli.__file__).resolve().parents[1]
GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
# python -m swapsim.cli, and the call the swapsim console script makes
LAUNCHERS = {"module": ["-m", "swapsim.cli"],
             "script": ["-c", "from swapsim.cli import main; main()"]}
TABLE_RUN = "scheme-b --epsilon 0.25 --eta 0.7 --variant pbs --format table"
SHOTS_RUN = "scheme-a --tau2 0.05 --eta 0.8 --order 4 --format json --shots 100 --seed 7"
CLOSED_PIPE_RUNS = ["bell-check",
                    "scheme-a --sweep tau2 --from 1e-4 --to 1e-2 --steps 2000 --tau2 1e-3"]


def run_child(launcher, argv, unbuffered=None, **kwargs):
    """A fresh ``swapsim`` process at an 80-column terminal; ``-B`` keeps it
    from writing bytecode under ``src/``.  ``unbuffered`` sets or clears
    PYTHONUNBUFFERED; None leaves the environment's."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-B", *LAUNCHERS[launcher], *argv.split()],
                          env=env, **kwargs)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_a_process_prints_the_golden_bytes_and_exits_0(launcher):
    # the fixture holds no --verify run, whose deviation depends on the
    # scipy build: it must print what run() writes in process, after the
    # report the fixture pins
    for argv in ["theta --theta 0.3 --format json", "postselect-vac --eta 0.8 --format csv",
                 TABLE_RUN, f"{TABLE_RUN} --verify", SHOTS_RUN, "--help"]:
        done = run_child(launcher, argv, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), argv
        if argv in GOLDEN:
            assert done.stdout == GOLDEN[argv], argv
            continue
        assert done.stdout == run_cli(argv.split())[1], argv
        report, _, verify = done.stdout[:-1].rpartition("\n")
        assert report + "\n" == GOLDEN[TABLE_RUN]
        assert re.fullmatch(r"verify: ok \(max deviation [^)]+\)", verify)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_a_process_with_a_usage_error_exits_2(launcher):
    done = run_child(launcher, "scheme-a --tau2 nan", capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: swapsim scheme-a ")
    assert "must be a finite number, got 'nan'" in done.stderr


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_a_top_level_usage_error_prints_the_usage_of_swapsim_help(argv, columns, capsys,
                                                                   monkeypatch):
    # the usage is built from COMMANDS: the same three lines at every width
    # and on every Python; the error line after it is worded differently on
    # 3.13, so only the usage is compared
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    usage = "".join(GOLDEN["--help"].splitlines(keepends=True)[:3])
    assert capsys.readouterr().err.startswith(usage)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", CLOSED_PIPE_RUNS)
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_a_process_whose_stdout_is_closed_exits_1_silently(launcher, argv, unbuffered):
    # unbuffered, the first write fails inside run(); buffered, the short
    # run fails in main's flush and the long sweep inside run()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_child(launcher, argv, unbuffered, stdout=write_end,
                         stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


class _Exited(Exception):
    """Raised in place of ``os._exit``, with its status."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


class _Stream(io.StringIO):
    """A standard stream that records each flush in ``events``; with
    ``error``, its flush raises that."""

    def __init__(self, name, events, error=None):
        super().__init__()
        self.name, self.events, self.error = name, events, error

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.error is not None:
            raise self.error


def patch_main(argv, monkeypatch, stdout_error=None) -> list:
    """Set ``cli.main()`` up to run ``argv`` with recording streams and an
    ``os._exit`` that raises ``_Exited``; returns the list of events, each
    flush and then ``exit CODE``."""
    events = []

    def exit_(code):
        events.append(f"exit {code}")
        raise _Exited(code)

    monkeypatch.setattr(cli.os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["swapsim", *argv.split()])
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    return events


def main_of(argv, monkeypatch, stdout_error=None):
    """The events of ``cli.main()`` on ``argv``, which must end in
    ``os._exit``, and both streams' text."""
    events = patch_main(argv, monkeypatch, stdout_error)
    with pytest.raises(_Exited):
        cli.main()
    return events, sys.stdout.getvalue(), sys.stderr.getvalue()


@pytest.mark.parametrize("argv, code", [
    ("theta --theta 0.3 --format json", 0),
    ("scheme-a --tau2 nan", 2),
    ("--help", 0),
    ("scheme-a --tau2 1e-3 --verify", 3),
])
def test_main_flushes_both_streams_then_exits_with_the_run_status(argv, code, monkeypatch):
    from swapsim import oracle

    monkeypatch.setattr(oracle, "verify_scheme_a", lambda *args: 1.0)
    events, out, err = main_of(argv, monkeypatch)
    assert events == ["flush stdout", "flush stderr", f"exit {code}"]
    if code == 0:
        assert out == GOLDEN[argv] if argv in GOLDEN else out.startswith("usage: swapsim")
    if code == 3:
        assert err == "error: oracle mismatch, max deviation 1\n"


def test_main_exits_1_silently_when_the_flush_finds_stdout_closed(monkeypatch):
    events, _, err = main_of("bell-check", monkeypatch, BrokenPipeError(32, "Broken pipe"))
    assert (events, err) == (["flush stdout", "exit 1"], "")


def test_an_exception_inside_run_propagates_from_main(monkeypatch):
    def fail(*args):
        raise RuntimeError("inside run")

    monkeypatch.setattr(protocols, "bell_decomposition_check", fail)
    events = patch_main("bell-check", monkeypatch)
    with pytest.raises(RuntimeError, match="inside run"):
        cli.main()
    assert events == []


def test_a_flush_that_fails_but_for_a_closed_pipe_takes_pythons_exit(monkeypatch):
    # the interpreter's teardown flushes again and reports the error
    events = patch_main("theta --theta 0.3", monkeypatch, OSError(28, "No space left on device"))
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert (exc.value.code, events) == (0, ["flush stdout"])


# --------------------------------------------------------------------------
# Fuzz: every argv exits 0 with finite output, or exits 2
# --------------------------------------------------------------------------

# plausible values three times in five, so that many argv get past validation
PLAUSIBLE_FLOATS = st.sampled_from(["0", "1e-3", "0.1", "0.3", "0.5", "0.9", "1"])
FUZZ_FLOATS = st.one_of(
    PLAUSIBLE_FLOATS, PLAUSIBLE_FLOATS, PLAUSIBLE_FLOATS,
    st.sampled_from(["nan", "inf", "-inf", "-0.5", "-0.0", "2", "1e300", "5e-324"]),
    st.floats().map(repr),
)
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
SCHEME_FLOATS = {
    "scheme-a": ("--tau", "--tau2", "--eta"),
    "verify-phase": ("--tau", "--tau2", "--eta"),
    "scheme-b": ("--epsilon", "--eta", "--pair-amplitude"),
    "theta": ("--theta",),
    "bell-check": (),
    "postselect-pol": ("--eta", "--double-pair-weight"),
    "postselect-vac": ("--eta",),
}
SWEEP_FLAGS = {"--from": FUZZ_FLOATS, "--to": FUZZ_FLOATS, "--steps": st.integers(-1, 3),
               "--spacing": st.sampled_from(["linear", "log"])}


@st.composite
def cli_argv(draw):
    """argv for one subcommand: each flag present with probability ``p``,
    ``--verify`` one time in five, and either a whole sweep or, now and
    then, a stray sweep flag."""
    scheme = draw(st.sampled_from(sorted(SCHEME_FLOATS)))
    argv = [scheme]

    def maybe(flag, values, p=0.5):
        if draw(st.floats(0.0, 1.0)) < p:
            argv.append(f"{flag}={draw(values)}")

    for flag in SCHEME_FLOATS[scheme]:
        maybe(flag, FUZZ_FLOATS, 0.7)
    if scheme in ("scheme-a", "verify-phase", "scheme-b"):
        maybe("--order", st.integers(-1, 4))
    if scheme == "scheme-b":
        maybe("--variant", st.sampled_from(["ubs", "pbs"]))
    if scheme == "postselect-pol" and draw(st.booleans()):
        argv.append("--x-only")
    maybe("--format", st.sampled_from(["json", "csv", "table"]))
    maybe("--shots", st.integers(-2, 50), 0.25)
    if draw(st.floats(0.0, 1.0)) < 0.2:
        argv.append("--verify")
    if draw(st.booleans()):
        maybe("--sweep", st.sampled_from(["tau", "tau2", "eta", "epsilon", "theta", "order"]),
              0.9)
        for flag, values in SWEEP_FLAGS.items():
            maybe(flag, values, 0.9 if flag != "--spacing" else 0.5)
    else:
        maybe(draw(st.sampled_from(sorted(SWEEP_FLAGS))), st.just("1"), 0.1)
    return argv


@given(cli_argv())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_0_with_finite_output_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out)
    except SystemExit as exc:
        code = exc.code
        assert code == 2, (argv, err.getvalue())
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        assert not NON_FINITE_TOKEN.search(out.getvalue()), (argv, out.getvalue())
        if "--verify" in argv:
            assert out.getvalue().splitlines()[-1].startswith("verify: ok"), (argv, out.getvalue())


@st.composite
def verified_argv(draw):
    """In-range argv, never a sweep, for a subcommand that supports
    ``--verify``, which is always on: every one must pass the oracle."""
    scheme = draw(st.sampled_from(sorted(k for k, row in cli.COMMANDS.items() if row.check)))
    order = draw(st.integers(1, 3))
    if scheme == "scheme-b":
        # a non-zero pair amplitude exactly when there is a second pair
        epsilon = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        amplitude = (draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True).filter(bool))
                     if order > 1 else 0.0)
        argv = [scheme, f"--epsilon={epsilon!r}", f"--pair-amplitude={amplitude!r}",
                f"--variant={draw(st.sampled_from(['ubs', 'pbs']))}"]
    elif draw(st.booleans()):
        argv = [scheme, f"--tau2={draw(st.floats(0.0, 0.5))!r}"]
    else:
        argv = [scheme, f"--tau={draw(st.floats(-0.7, 0.7))!r}"]
    fmt = draw(st.sampled_from(['json', 'csv', 'table']))
    argv += [f"--eta={draw(st.floats(0.0, 1.0))!r}", f"--order={order}", f"--format={fmt}"]
    # the CSV report has no samples, so --shots with --format csv exits 2
    if cli.COMMANDS[scheme].distribution and fmt != "csv" and draw(st.booleans()):
        argv += [f"--shots={draw(st.integers(1, 50))}", f"--seed={draw(st.integers(0, 2**32))}"]
    return argv + ["--verify"]


@given(verified_argv())
@settings(max_examples=100, deadline=None)
def test_cli_fuzz_in_range_verify_passes(argv):
    code, text = run_cli(argv)
    assert code == 0, argv
    assert text.splitlines()[-1].startswith("verify: ok"), (argv, text)
