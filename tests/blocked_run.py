"""Run swapsim and the experiment scripts with numpy, scipy and dataclasses
blocked, and print each run's stdout.

    python -I -B tests/blocked_run.py SRC < runs.json

``runs.json`` is a JSON list of argvs: ``["swapsim", *args]`` runs
``cli.run(args)`` and ``[script, *args]`` runs that script as ``__main__``
through ``runpy``.  Every run must return or exit with 0.  The stdouts are
printed as one JSON list, in run order.  Any import of the three modules
raises ``ModuleNotFoundError``: only ``--verify`` may import numpy or
scipy, and nothing imports dataclasses.  ``-B`` keeps the child
from writing bytecode into ``SRC``.
"""
import contextlib
import io
import json
import runpy
import sys

sys.modules["numpy"] = sys.modules["scipy"] = sys.modules["dataclasses"] = None
sys.path.insert(0, sys.argv[1])
from swapsim import cli


def stdout_of(target: str, *args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            if target == "swapsim":
                code = cli.run(list(args))
            else:
                sys.argv = [target, *args]
                runpy.run_path(target, run_name="__main__")
                code = 0
        except SystemExit as exc:  # --help, and every script's last line
            code = exc.code
    if code != 0:
        sys.exit(f"{target} {' '.join(args)} exited with {code!r}")
    return out.getvalue()


print(json.dumps([stdout_of(*argv) for argv in json.load(sys.stdin)]))
