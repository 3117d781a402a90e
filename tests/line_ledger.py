"""A ledger of the src/liecas lines that no test and no sweep request runs.

Run it from the repository root:

    PYTHONPATH=src python3 tests/line_ledger.py

It traces, with sys.settrace, the tier-1 suite run in this process
through pytest.main and then every request of output_sweep.py, and
collects each line of src/liecas that runs.  The executable lines are
the line numbers of every code object compiled from src/liecas.  An
executable line that neither run reaches is printed with its module,
number and text; a line listed in UNREACHED below is printed with the
reason it stays, and any other is marked "unexplained".  The script
exits 1 when the tier-1 suite fails, a sweep request raises, a line is
unexplained, or a listed line no longer exists or is now reached.
Tests that spawn a subprocess are not traced, so a line only a
subprocess runs is listed with the test or CI step that reaches it.
Standard library and pytest only; it takes about 3.5 minutes on a
shared 2-vCPU host.
"""

import contextlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "liecas")

_CLOSED_STDOUT = (
    "runs only when stdout closes before the answer is written, in a "
    "subprocess: test_cli.py::test_closed_stdout_exits_quietly and the CI "
    "step 'a closed stdout ends the request without a traceback'")
_OUT_OF_MEMORY = (
    "runs only when a request raises MemoryError, in a subprocess that "
    "caps its own address space: "
    "test_cli.py::test_running_out_of_memory_answers_an_error")
_NOT_JACOBI = (
    "internal-consistency guard: the weight-zero part of a Lie bracket "
    "table is the limit of tables isomorphic to it, so it satisfies Jacobi")

# (module, stripped text of the line) -> why no tier-1 test and no sweep
# request runs it; one entry covers every line of the module with that text
UNREACHED = {
    ("cli.py", "code = 1"): (
        "internal-consistency guard: each copy condition holds at every "
        "value of the contraction parameter, so a copy-compatible limit "
        "dressing verifies"),
    ("cli.py", "except BrokenPipeError:"): _CLOSED_STDOUT,
    ("cli.py", 'with open(os.devnull, "w") as devnull:'): _CLOSED_STDOUT,
    ("cli.py", "os.dup2(devnull.fileno(), sys.stdout.fileno())"):
        _CLOSED_STDOUT,
    ("cli.py", "return BROKEN_PIPE"): _CLOSED_STDOUT,
    ("cli.py", "except MemoryError:"): _OUT_OF_MEMORY,
    ("cli.py", "code = out = None"): _OUT_OF_MEMORY,
    ("cli.py", 'return _refuse(fmt, OutOfMemoryError("out of memory"))'):
        _OUT_OF_MEMORY,
    ("cli.py", "sys.exit(main())"): (
        "runs only under python -m liecas.cli, in a subprocess: "
        "test_cli.py::test_module_entry_point"),
    ("contraction.py", "raise InternalConsistencyError("): _NOT_JACOBI,
    ("contraction.py", '"contracted bracket table is not a Lie algebra: %s"'):
        _NOT_JACOBI,
    ("contraction.py", "% report.describe())"): _NOT_JACOBI,
    ("naming.py", "digits += 1"): (
        "guards a log10 that rounds an integer at or above 10**k down "
        "below k; CPython 3.11 on x86-64 Linux rounds no 10**k, 10**k + 1 "
        "or 10**(k+1) - 1 with k in 4300..20000 that way"),
}


def executable_lines():
    """{path: {line number: text}} over every code object of src/liecas."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = text.splitlines()
        lines, stack = {}, [compile(text, path, "exec")]
        while stack:
            code = stack.pop()
            for _start, _end, line in code.co_lines():
                if line is not None and line > 0:
                    lines[line] = source[line - 1].strip()
            stack.extend(c for c in code.co_consts
                         if isinstance(c, type(code)))
        out[os.path.realpath(path)] = lines
    return out


class Ledger:
    """Collects (path, line) for every line event in a src/liecas frame."""

    def __init__(self, paths):
        self.paths = set(paths)
        self.wanted = {}      # co_filename -> whether it is in paths
        self.reached = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        hit = self.wanted.get(name)
        if hit is None:
            hit = self.wanted[name] = os.path.realpath(name) in self.paths
        return self._line if hit else None

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


def run_tier1():
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider", HERE])


def run_sweep():
    import output_sweep
    raised = 0
    with tempfile.TemporaryDirectory() as folder:
        for argv in output_sweep.requests(folder):
            try:
                output_sweep.answer(argv)
            except Exception as err:
                raised += 1
                print("raised: %s: %r" % (argv, err), file=sys.stderr)
    return raised


def main():
    lines = executable_lines()
    ledger = Ledger(lines)
    with ledger.tracing():
        failed = run_tier1()
        with contextlib.redirect_stdout(io.StringIO()):
            raised = run_sweep()
    reached = {(os.path.realpath(f), n) for f, n in ledger.reached}
    unexplained, stale = 0, dict(UNREACHED)
    total = sum(len(v) for v in lines.values())
    missed = []
    for path in sorted(lines):
        module = os.path.basename(path)
        for number in sorted(lines[path]):
            if (path, number) in reached:
                continue
            text = lines[path][number]
            reason = UNREACHED.get((module, text))
            stale.pop((module, text), None)
            if reason is None:
                unexplained += 1
                reason = "unexplained"
            missed.append("%s:%d: %s  -- %s" % (module, number, text, reason))
    print("\n".join(missed))
    for module, text in sorted(stale):
        print("listed but reached or gone: %s: %s" % (module, text))
    print("%d executable lines, %d unreached, %d unexplained"
          % (total, len(missed), unexplained))
    if failed:
        print("tier-1 failed: pytest exit status %d" % failed)
    if raised:
        print("%d sweep requests raised" % raised)
    return 1 if failed or raised or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
