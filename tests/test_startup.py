"""The command line as a process: `python -m lexmatch`, and what importing
the CLI loads.  Every `lexmatch` process pays for its imports, so modules
the CLI never uses must stay off its import path."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lexmatch import dump_instance, solve_dispatch

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args, stdin=""):
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )


def test_python_m_lexmatch_solves(ref_instance):
    proc = _run(["-m", "lexmatch", "solve", "--instance", "-"], dump_instance(ref_instance))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == solve_dispatch(ref_instance).to_json_dict()


def test_python_m_lexmatch_keeps_the_exit_codes():
    proc = _run(["-m", "lexmatch", "solve", "--instance", "-"], "{broken")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid input: bad JSON")


def test_a_reader_that_stops_early_ends_the_command_quietly():
    # 2000 students print more than a pipe holds, so the command is still
    # writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "lexmatch", "gen", "--kind", "ranked", "--n", "2000", "--m", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # -S keeps site-packages start-up hooks out of the count
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from lexmatch.cli import main; "
        "print(*[m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules])"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_library_import_loads_no_argparse():
    # only the command line needs argparse; build_parser imports it
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import lexmatch; "
        "print('argparse' in sys.modules)"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_loads_no_fairness_or_reductions():
    # `lexmatch solve` never runs them; fairness and reduce import on use
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from lexmatch.cli import main; "
        "print(*[m for m in ('lexmatch.fairness', 'lexmatch.reductions') if m in sys.modules])"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_public_name_resolves():
    # the lazy names resolve by attribute and by from-import alike
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import lexmatch\n"
        "for name in lexmatch.__all__:\n"
        "    got = getattr(lexmatch, name)\n"
        "    exec(f'from lexmatch import {name} as again')\n"
        "    assert again is got, name\n"
        "print(len(lexmatch.__all__))"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 60


def test_generate_stays_the_function_after_its_module_loads():
    # the module and the function share the name lexmatch.generate; a lazy
    # attribute would become the module once the submodule is imported
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import lexmatch.generate; "
        "from lexmatch import generate; print(callable(generate), type(generate).__name__)"
    )
    proc = _run(["-S", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "function"]
