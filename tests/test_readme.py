"""Every ``swapsim`` line in README.md's code blocks runs as README says.

Each runs in process, through ``cli.run``.  A line ``swapsim ARGS`` must
exit 0, or with the status that its ``# exits N`` comment gives.  A line
``$ swapsim ARGS`` is followed by the stdout README shows for it, up to
the next ``$`` line or the end of the block, and must print exactly those
lines, so no value README quotes as output can go stale.
"""
import contextlib
import io
import re
import shlex

import pytest

from swapsim import cli

from conftest import TESTS

README = TESTS.parent / "README.md"
_RUN = re.compile(r"(?P<prompt>\$ )?swapsim\s+(?P<args>[^#]*?)\s*(?:#\s*(?P<comment>.*))?")
_EXITS = re.compile(r"exits (\d+)")


def readme_runs(text):
    """``(argv, status, shown)`` for each ``swapsim`` line of ``text``'s
    fenced code blocks, in order: ``shown`` is the list of output lines
    after a ``$`` line, None after a line without a prompt."""
    runs, in_block, shown = [], False, None
    for line in text.splitlines():
        if line.startswith("```"):
            in_block, shown = not in_block, None
            continue
        if not in_block:
            continue
        match = _RUN.fullmatch(line)
        if match:
            exits = _EXITS.match(match["comment"] or "")
            shown = [] if match["prompt"] else None
            runs.append((shlex.split(match["args"]), int(exits[1]) if exits else 0, shown))
        elif shown is not None:
            shown.append(line)
    return runs


RUNS = readme_runs(README.read_text(encoding="utf-8"))


def test_readme_shows_runs_with_output_and_with_a_usage_error():
    assert len(RUNS) >= 20
    assert any(shown for _, _, shown in RUNS)
    assert any(status == 2 for _, status, _ in RUNS)


@pytest.mark.parametrize("argv, status, shown", RUNS, ids=[" ".join(run[0]) for run in RUNS])
def test_a_readme_run_exits_and_prints_as_readme_says(argv, status, shown):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv, out)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
    assert code == status, err.getvalue()
    if shown is not None:
        assert out.getvalue().splitlines() == shown
