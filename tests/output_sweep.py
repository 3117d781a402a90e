"""A digest of the command line's answers over a fixed request sweep.

Run it from the repository root:

    PYTHONPATH=src python3 tests/output_sweep.py

Every catalog family is built at its least N and at least N + 1 (the
parameterless families once, boson_example at its default alpha and at
alpha = 1/2, whose fractional structure constants reach every renderer;
it carries no dressing there).  Each instance gets `catalog`,
`validate`, `mc` and `count --verbose`, and one of a dressed family also
`verify-copy`, `casimirs` and `contract --weights '{"R": 1}'`, whose
limit does not exist.  Every instance then gets one `contract` with the
weighting of limit_weights, whose limit exists: a plain contraction of
an undressed instance, and for a dressed one a contracted dressing that
is copy compatible and verifies.  The three dressings of
property_suites.failing_specs are written to catalog-style dump files in
a temporary folder and each gets `verify-copy` and `casimirs --algebra`.
Every request runs in json, text and latex.  The requests run in this
process through liecas.cli.main; the script prints the request count
and one sha256 over every (request, exit status, stdout, stderr), with
the temporary folder's name left out.  Equal digests from two checkouts mean
byte-identical answers: point PYTHONPATH at each checkout's src in turn.
A request that raises instead of answering is named on stderr, and the
script then exits 1.  Standard library only; it takes about 20 s on a
shared 2-vCPU host.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

from liecas.catalog import FAMILIES
from liecas.cli import main
from liecas.lie_core import algebra_to_json
from liecas.virtual_copy import emit_spec

from property_suites import failing_specs

FORMATS = ("json", "text", "latex")


def limit_weights(name, n):
    """The --weights of a contract request on family name at size n whose
    limit exists: weight 1 on each letter listed here, and no weight at
    all on so and su11, which are all Levi."""
    def vector(letter):
        return ["%s_%d" % (letter, k) for k in range(1, n + 1)]
    if name == "heisenberg":
        letters = ["Q_1"]
    elif name == "weyl_quesne":
        letters = ["I"] + vector("b")
    elif name in ("Ha", "QHa"):
        letters = ["R"] + vector("G")
    elif name.startswith("IHa"):
        letters = ["E", "R", "T"] + vector("F") + vector("G")
    elif name.startswith("boson_example"):
        letters = ["Q_1", "P_1", "E", "T"]
    else:
        letters = []
    return json.dumps({letter: 1 for letter in letters})


def requests(folder):
    for name, family in FAMILIES.items():
        if family.least is None:
            instances = [(None, [])]
        else:
            instances = [(n, ["--N", str(n)])
                         for n in (family.least, family.least + 1)]
        if family.parameter == "alpha":
            instances.append((None, ["--alpha", "1/2"]))
        commands = [["catalog"], ["validate"], ["mc"], ["count", "--verbose"]]
        if family.dressed:
            commands += [["verify-copy"], ["casimirs"],
                         ["contract", "--weights", '{"R": 1}']]
        for n, instance in instances:
            limit = ["contract", "--weights", limit_weights(name, n)]
            for command in commands + [limit]:
                for fmt in FORMATS:
                    yield command + ["--family", name] + instance + [
                        "--format", fmt]
    for label, (algebra, spec) in failing_specs().items():
        path = os.path.join(folder, label + ".json")
        with open(path, "w") as dump:
            json.dump({"algebra": algebra_to_json(algebra),
                       "spec": emit_spec(spec)}, dump)
        for command in ("verify-copy", "casimirs"):
            for fmt in FORMATS:
                yield [command, "--algebra", path, "--format", fmt]


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


if __name__ == "__main__":
    digest, count, raised = hashlib.sha256(), 0, 0
    with tempfile.TemporaryDirectory() as folder:
        for argv in requests(folder):
            try:
                record = answer(argv)
            except Exception:
                raised += 1
                record = [argv, traceback.format_exc()]
                print("raised: %s\n%s" % (argv, record[1]), file=sys.stderr)
            text = json.dumps(record).replace(folder, "<folder>")
            digest.update(text.encode("utf-8") + b"\n")
            count += 1
    print("%d requests" % count)
    print("sha256 %s" % digest.hexdigest())
    sys.exit(1 if raised else 0)
