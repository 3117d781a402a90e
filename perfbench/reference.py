"""Reference outputs: record them once, compare every later run to them.

A reference keeps each timed request's exit status and its parsed JSON
result.  Dicts, and lists of at most SHORT_LIST items, are kept as
structure; any other value whose JSON text is longer than SHORT_TEXT
bytes is kept as the SHA-256 of that text.  A later run matches when it
exits the same way and, on every recorded key, holds the same value.
Keys a later version adds to a dict are ignored.

    python3 perfbench/reference.py

runs every workload's timed requests once and rewrites reference.json.
Run it only at a commit whose outputs are known to be right.
"""

import hashlib
import json
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DIGEST = "$sha256"
SHORT_LIST = 8
SHORT_TEXT = 200


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _sha(value):
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


def digest(value):
    """The recorded form of a parsed JSON value."""
    if isinstance(value, dict):
        return {k: digest(v) for k, v in value.items()}
    if isinstance(value, list) and len(value) <= SHORT_LIST:
        return [digest(v) for v in value]
    if len(_canonical(value)) > SHORT_TEXT:
        return {DIGEST: _sha(value)}
    return value


def matches(recorded, actual):
    """True when `actual` agrees with `recorded` on every recorded key."""
    if isinstance(recorded, dict) and set(recorded) == {DIGEST}:
        return not isinstance(actual, dict) and _sha(actual) == recorded[DIGEST]
    if isinstance(recorded, dict):
        return (isinstance(actual, dict)
                and all(k in actual and matches(v, actual[k])
                        for k, v in recorded.items()))
    if isinstance(recorded, list):
        return (isinstance(actual, list) and len(actual) == len(recorded)
                and all(matches(r, a) for r, a in zip(recorded, actual)))
    return type(recorded) is type(actual) and recorded == actual


def entry(exit_code, stdout):
    """Recorded form of one request's outcome; None when stdout is not
    one JSON document."""
    try:
        result = json.loads(stdout)
    except ValueError:
        return None
    return {"exit": exit_code, "result": digest(result)}


def check(recorded, exit_code, stdout):
    """Why an outcome differs from its reference, or None when it agrees."""
    if recorded is None:
        return "no reference recorded"
    if exit_code != recorded["exit"]:
        return "exit %s, reference %s" % (exit_code, recorded["exit"])
    try:
        result = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not matches(recorded["result"], result):
        return "result differs from the reference"
    return None


def load(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def record(seed=0):
    import run
    from workloads import WORKLOADS, requests
    run.prepare()
    table = {}
    for workload in WORKLOADS:
        for request in requests(workload, seed, run.DATA_DIR):
            if request.probe_of is not None:
                continue
            outcome = run.run_request(request, deadline=None)
            table[request.id] = entry(outcome.exit, outcome.stdout)
            print("%-28s exit %d  %.2f s" % (request.id, outcome.exit,
                                            outcome.wall_s), file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"requests": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
