"""Byte-for-byte golden stdout of the CLI.

Every subcommand in every format, sweeps of ``eta``, ``epsilon``, ``tau2``
and ``tau``, high-order phase verifications, and a run of each report
whose conditioning event is impossible, plus the ``--help`` text of
``swapsim`` and of every subcommand at an 80-column terminal, and two
``--shots`` runs, one with a seed above 2**32 (two 32-bit entropy words).
``--verify`` is left out: its deviation depends on the installed scipy
build.  The ``--shots`` counts are numpy's, drawn by the stdlib port in
``swapsim.multinomial``, which ``test_multinomial.py`` checks against numpy
itself.  Every entry is also run in one child with numpy, scipy and
dataclasses blocked (``blocked_run.py``) and must print the same bytes, so
a run added with ``--add`` is checked blocked too.

Record the argvs the fixture lacks, keeping every entry it has byte for
byte, with ``PYTHONPATH=src python tests/test_golden_cli.py --add``.
Re-record every entry (only for a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_cli.py --record``.
"""
import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from conftest import run_blocked
from swapsim import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

RUNS = [
    "scheme-a --tau2 0.05 --eta 0.8 --order 4",
    "scheme-b --epsilon 0.3 --eta 0.9 --order 2 --pair-amplitude 0.5",
    "scheme-b --epsilon 0.25 --eta 0.7 --variant pbs",
    "theta --theta 0.3",
    "bell-check",
    "postselect-pol --eta 0.9 --double-pair-weight 0.5",
    "postselect-vac --eta 0.8",
    "verify-phase --tau2 0.02 --eta 0.7 --order 3",
]
ARGVS = [f"{run} --format {fmt}" for run in RUNS for fmt in ("table", "csv", "json")] + [
    "verify-phase --tau2 1e-3 --order 2 --sweep eta --from 0.2 --to 1.0 --steps 5",
    # sweeps of epsilon, tau2 and tau, two of them log-spaced
    "scheme-b --epsilon 0.1 --sweep epsilon --from 0.05 --to 0.5 --steps 4 --spacing log",
    "scheme-a --tau2 1e-3 --sweep tau2 --from 1e-4 --to 1e-2 --steps 3 --spacing log",
    "verify-phase --tau 0.1 --sweep tau --from 0.05 --to 0.2 --steps 3",
    "verify-phase --tau2 0.05 --eta 0.6 --order 6",
    "verify-phase --tau2 0.05 --eta 0.6 --order 6 --format json",
    "verify-phase --tau2 1e-3 --eta 0.8 --order 2 --format json",
    "scheme-a --tau2 1e-3 --eta 0.9 --order 2",
    "scheme-b --epsilon 0.3 --pair-amplitude 0.5 --order 2 --variant pbs --format csv",
    # order 10 at eta < 1, where pruning drops most heralded members
    "verify-phase --tau2 0.1 --eta 0.6 --order 10 --format json",
    "scheme-a --tau2 0.1 --eta 0.7 --order 10 --format json",
    # heralds on the non-leading beams 2 and 3, where each detector group
    # collects amplitudes from several source terms and pruning drops some
    "scheme-b --epsilon 0.3 --eta 0.8 --order 4 --pair-amplitude 0.5 --format json",
    "scheme-b --epsilon 0.3 --eta 0.8 --order 4 --pair-amplitude 0.5 --variant pbs --format json",
    # phase tables whose members sink below half an ulp of every running
    # entry, and heralds at eta = 1, where most detector groups weigh
    # exactly 0.0 on both heralded outcomes
    "verify-phase --tau2 0.01 --eta 0.7 --order 10 --format json",
    "verify-phase --tau2 0.1 --eta 1 --order 10 --format json",
    "scheme-a --tau2 0.05 --eta 1 --order 8 --format json",
    # scheme-B heralds at eta = 1, where both heralded outcomes read 0.0 on
    # the vacuum and on every group with photons at both detectors, and the
    # no-unitary grouping at eta = 1
    "scheme-b --epsilon 0.3 --eta 1 --order 4 --pair-amplitude 0.5 --format json",
    "scheme-b --epsilon 0.3 --eta 1 --order 4 --pair-amplitude 0.5 --variant pbs --format json",
    "postselect-pol --eta 1 --format json",
    "postselect-vac --eta 1 --format json",
    # the one report whose source has no double pairs
    "postselect-pol --eta 0.9 --x-only --format json",
    # scheme A's dropped_mass at eta = 1, and both heralds at eta = 0, where
    # every detector group weighs exactly 0.0 on both heralded outcomes
    "scheme-a --tau2 0.1 --eta 1 --order 10 --format table",
    "scheme-a --tau2 0.1 --eta 0 --order 10 --format json",
    "scheme-b --epsilon 0.3 --eta 0 --order 4 --pair-amplitude 0.5 --format json",
    # sampled click counts, from seeds of one and of two 32-bit words
    "scheme-a --tau2 0.05 --eta 0.8 --order 4 --format json --shots 100 --seed 7",
    "scheme-b --epsilon 0.25 --eta 0.7 --variant pbs --format json --shots 1000"
    " --seed 123456789012345",
]
IMPOSSIBLE_RUNS = [
    "scheme-a --tau2 0 --eta 0.5",
    "theta --theta 0",
    "postselect-pol --eta 0",
    "postselect-vac --eta 0",
    "verify-phase --tau2 0.1 --eta 0",
]
ARGVS += [f"{run} --format {fmt}" for run in IMPOSSIBLE_RUNS for fmt in ("json", "table")]
HELP_ARGVS = ["--help"] + [f"{name} --help" for name in cli.COMMANDS]


def stdout_of(argv: str) -> str:
    out = io.StringIO()
    assert cli.run(argv.split(), out=out) == 0
    return out.getvalue()


def help_of(argv: str) -> str:
    """argparse prints help to sys.stdout and exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.run(argv.split())
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError(f"swapsim {argv} did not exit")
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_every_run(golden):
    assert list(golden) == ARGVS + HELP_ARGVS
    assert {argv.split()[0] for argv in ARGVS} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_stdout_is_golden(golden, argv):
    assert stdout_of(argv) == golden[argv]


def test_every_golden_run_prints_its_bytes_with_numpy_scipy_and_dataclasses_blocked(golden):
    argvs = ARGVS + HELP_ARGVS
    done = run_blocked([["swapsim", *argv.split()] for argv in argvs])
    assert done.returncode == 0, done.stderr
    assert dict(zip(argvs, json.loads(done.stdout))) == {argv: golden[argv] for argv in argvs}


def test_the_blocked_child_fails_a_run_that_needs_numpy():
    done = run_blocked([["swapsim", "scheme-a", "--tau2", "1e-3", "--verify"]])
    assert done.returncode != 0
    assert "ModuleNotFoundError: import of numpy halted" in done.stderr


@pytest.mark.parametrize("run", RUNS + IMPOSSIBLE_RUNS)
def test_event_is_impossible_exactly_when_its_probability_is_zero(run, monkeypatch):
    # pruning never empties a heralded branch, so an event lacks an ensemble
    # only when its outcome has probability 0
    reports = []
    emit = cli._emit_report
    monkeypatch.setattr(cli, "_emit_report",
                        lambda report, *rest: (reports.append(report), emit(report, *rest)))
    stdout_of(run)
    (report,) = reports
    assert report.events
    for ev in report.events:
        assert ev.impossible == (ev.probability == 0.0), (run, ev.name)


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_cli_help_is_golden(golden, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_of(argv) == golden[argv]


if __name__ == "__main__":
    usage = "usage: PYTHONPATH=src python tests/test_golden_cli.py --record|--add"
    if sys.argv[1:] not in (["--record"], ["--add"]):
        sys.exit(usage)
    kept = {}
    if sys.argv[1] == "--add":
        with open(GOLDEN) as f:
            kept = json.load(f)
        unlisted = [argv for argv in kept if argv not in ARGVS + HELP_ARGVS]
        if unlisted:
            sys.exit(f"--add rewrites no entry, but the fixture holds unlisted argvs "
                     f"{unlisted}; re-record with --record")
    os.environ["COLUMNS"] = "80"
    recorded = {argv: kept[argv] if argv in kept else stdout_of(argv) for argv in ARGVS}
    recorded.update((argv, kept[argv] if argv in kept else help_of(argv)) for argv in HELP_ARGVS)
    with open(GOLDEN, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")
    print(f"recorded {len(recorded) - len(kept)} of {len(recorded)} entries")
