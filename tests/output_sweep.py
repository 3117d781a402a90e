"""A digest of the command line's answers over a fixed request sweep.

Run it from the repository root:

    PYTHONPATH=src python3 tests/output_sweep.py

Every catalog family is built at its least N and at least N + 1 (the
parameterless families once, boson_example at its default alpha).  Each
instance gets `catalog`, `validate`, `mc` and `count --verbose`, and a
dressed one also `verify-copy` and `casimirs`, each in json, text and
latex.  The requests run in this process through liecas.cli.main; the
script prints the request count and one sha256 over every (request,
exit status, stdout, stderr).  Equal digests from two checkouts mean
byte-identical answers: point PYTHONPATH at each checkout's src in turn.
Standard library only; it takes about 40 s.
"""

import contextlib
import hashlib
import io
import json

from liecas.catalog import FAMILIES
from liecas.cli import main

FORMATS = ("json", "text", "latex")


def requests():
    for name, family in FAMILIES.items():
        if family.least is None:
            instances = [[]]
        else:
            instances = [["--N", str(n)]
                         for n in (family.least, family.least + 1)]
        commands = [["catalog"], ["validate"], ["mc"], ["count", "--verbose"]]
        if family.dressed:
            commands += [["verify-copy"], ["casimirs"]]
        for instance in instances:
            for command in commands:
                for fmt in FORMATS:
                    yield command + ["--family", name] + instance + [
                        "--format", fmt]


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


if __name__ == "__main__":
    digest, count = hashlib.sha256(), 0
    for argv in requests():
        digest.update(json.dumps(answer(argv)).encode("utf-8") + b"\n")
        count += 1
    print("%d requests" % count)
    print("sha256 %s" % digest.hexdigest())
