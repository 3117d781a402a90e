"""The liecas benchmark: what a user of the `liecas` command waits for.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from src/.
One client sends the workload's requests one at a time, each as its own
`python -m liecas.cli` process, and repeats whole passes until the next
would end after S seconds (at least one pass).  Every output is checked
against reference.json and against the same request's output in the other
passes of the run.  The known-defect probes run once, after the passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and one pass through trace_launcher.py, and prints the per-layer metrics
with the tracing overhead.  The last line of stdout is the result; the
full run record goes to perfbench/out/results/.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import reference
from trace_launcher import TRACED, span_name
from workloads import PROBE_ALGEBRAS, WORKLOADS, algebra_file, dump_file, requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DATA_DIR = "perfbench/out/algebras"       # relative to ROOT, as argv sees it
LAUNCHER = HERE / "trace_launcher.py"

SETUP_REPEATS = 5         # imports timed before the passes
RUN_LIMIT_S = 170         # a request still running then is killed

UNITS = {"wall_s": "s", "max_request_s": "s", "peak_rss_mb": "MB",
         "ok_ratio": "ratio", "setup_s": "s"}


class BenchError(Exception):
    pass


@dataclass
class Outcome:
    id: str
    exit: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def _child_env():
    env = dict(os.environ)
    env.pop("LIECAS_FORMAT", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _spawn(cmd, deadline):
    """Run cmd to completion; (exit code, stdout, wall s, cpu s, peak RSS MB).

    The child's own rusage gives its CPU time and peak RSS.  A child
    still running at `deadline` (a perf_counter value) is killed.
    """
    out_path = OUT / "stdout.tmp"
    with open(out_path, "wb") as out, open(OUT / "stderr.tmp", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(),
                                cwd=ROOT)
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
            timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            # known to Popen from here on, so a late kill() is a no-op
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if timer is not None:
                timer.cancel()
                timer.join()
    return (proc.returncode, out_path.read_bytes(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_request(request, deadline, spans_path=None):
    if spans_path is None:
        cmd = [sys.executable, "-m", "liecas.cli", *request.argv]
    else:
        cmd = [sys.executable, str(LAUNCHER), str(spans_path), request.id,
               "--", *request.argv]
    code, stdout, wall, cpu, rss = _spawn(cmd, deadline)
    return Outcome(request.id, code, stdout, wall, cpu, rss)


def prepare():
    """Check for the package and write the algebra files structure-probe
    reads."""
    if not (SRC / "liecas" / "cli.py").is_file():
        raise BenchError("no liecas package under %s: run from the root of "
                         "a source checkout" % SRC)
    (ROOT / DATA_DIR).mkdir(parents=True, exist_ok=True)
    for family, N in PROBE_ALGEBRAS:
        cmd = [sys.executable, "-m", "liecas.cli", "catalog", "--family",
               family, "--N", str(N), "--format", "json"]
        code, stdout, *_ = _spawn(cmd, None)
        if code != 0:
            raise BenchError("catalog dump of %s(%d) exited %d"
                             % (family, N, code))
        dump = json.loads(stdout)
        (ROOT / dump_file(DATA_DIR, family, N)).write_bytes(stdout)
        with open(ROOT / algebra_file(DATA_DIR, family, N), "w",
                  encoding="utf-8") as fh:
            json.dump(dump["algebra"], fh, sort_keys=True)


def time_import():
    """Wall time of a fresh interpreter importing liecas.cli and exiting."""
    code, _out, wall, *_ = _spawn([sys.executable, "-c", "import liecas.cli"],
                                  None)
    if code != 0:
        raise BenchError("import liecas.cli exited %d" % code)
    return wall


class Checker:
    """Compares every outcome with its reference and with earlier passes."""

    def __init__(self, table):
        self.table = table
        self.first_stdout = {}
        self.failures = defaultdict(list)     # request id -> reasons
        self.attempts = defaultdict(int)

    def __call__(self, request, outcome):
        self.attempts[request.id] += 1
        reason = reference.check(self.table.get(request.probe_of or request.id),
                                 outcome.exit, outcome.stdout)
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        if self.first_stdout.setdefault(request.id, digest) != digest:
            reason = reason or "stdout differs from an earlier pass"
        if reason:
            self.failures[request.id].append(reason)
        return reason


def run_pass(timed, check, deadline, spans_dir=None, setup_times=None):
    """One pass over the timed requests.  With `setup_times`, an import is
    timed after each request, so set-up samples span the whole run."""
    outcomes = []
    for request in timed:
        spans_path = None
        if spans_dir is not None:
            spans_path = spans_dir / (request.id.replace(":", "_") + ".json")
        outcome = run_request(request, deadline, spans_path)
        check(request, outcome)
        outcomes.append(outcome)
        if setup_times is not None:
            setup_times.append(time_import())
    return outcomes


def pass_summary(outcomes):
    return {"wall_s": sum(o.wall_s for o in outcomes),
            "max_request_s": max(o.wall_s for o in outcomes),
            "peak_rss_mb": max(o.rss_mb for o in outcomes)}


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def layer_metrics(outcomes, spans_dir):
    """Calls and self time per traced function, plus the counters."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    absent = set()
    cache_sizes, sym_terms, caps = [], [], set()
    skipped = 0
    for outcome in outcomes:
        try:
            with open(spans_dir / (outcome.id.replace(":", "_") + ".json"),
                      encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            continue              # killed before it wrote; already failed
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), child in zip(spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        absent.update(doc["absent"])
        cache_sizes.append(doc["pbw_cache_entries"])
        sym_terms.append(doc["symmetrized_terms"])
        cap = doc["ucheck_degree_cap"]
        caps.add(cap)
        try:
            result = json.loads(outcome.stdout)
        except ValueError:
            continue              # not a JSON document; already failed
        if cap is not None and isinstance(result, dict):
            skipped += sum(1 for row in result.get("casimirs", ())
                           if row.get("degree", 0) > cap)
    metrics = {}
    for module, attr in TRACED:
        name = span_name(module, attr)
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (self_s[name], "s")
    known = [n for n in cache_sizes if n is not None]
    metrics["enveloping.pbw_cache_entries"] = (max(known) if known else 0,
                                               "count")
    if any(n is None for n in cache_sizes):
        absent.add("enveloping.pbw_cache_entries")
    metrics["enveloping.symmetrized_terms"] = (
        sum(n for n in sym_terms if n is not None), "count")
    if None in caps:
        absent.add("casimir_gen.ucheck_skipped")
    metrics["casimir_gen.ucheck_skipped"] = (skipped, "count")
    return metrics, sorted(absent)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def bench(workload, seed, seconds, trace):
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "python": platform.python_version(),
              "executable": sys.executable, "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "loadavg_start": _loadavg()}
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not reference.REFERENCE_PATH.is_file():
        raise BenchError("missing %s" % reference.REFERENCE_PATH)
    prepare()
    setup_times = [time_import() for _ in range(SETUP_REPEATS)]

    all_requests = requests(workload, seed, DATA_DIR)
    timed = [r for r in all_requests if r.probe_of is None]
    probes = [r for r in all_requests if r.probe_of is not None]
    check = Checker(reference.load())

    passes = []
    spans_dir = None
    if trace:
        passes.append(run_pass(timed, check, deadline))
        spans_dir = OUT / "spans" / ("%s-s%d" % (workload, seed))
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("*.json"):
            old.unlink()
        passes.append(run_pass(timed, check, deadline, spans_dir))
    else:
        begun = time.perf_counter()
        while True:
            passes.append(run_pass(timed, check, deadline,
                                   setup_times=setup_times))
            elapsed = time.perf_counter() - begun
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    for probe in probes:
        check(probe, run_request(probe, deadline))

    summaries = [pass_summary(p) for p in passes]
    ids = [r.id for r in all_requests]
    ok = sum(1 for i in ids if not check.failures[i])
    timed_failed = sum(len(check.failures[r.id]) for r in timed)
    record.update({
        "setup_s": setup_times,
        "loadavg_end": _loadavg(),
        "elapsed_s": time.perf_counter() - started,
        "passes": [{o.id: {"wall_s": o.wall_s, "cpu_s": o.cpu_s,
                           "rss_mb": o.rss_mb, "exit": o.exit}
                    for o in p} for p in passes],
        "pass_summaries": summaries,
        "failures": {k: v for k, v in check.failures.items() if v},
        "failed_ratio": 1 - ok / len(ids),
    })

    if trace:
        layers, absent = layer_metrics(passes[1], spans_dir)
        layers["trace.overhead_s"] = (summaries[1]["wall_s"]
                                      - summaries[0]["wall_s"], "s")
        layers["trace.absent_names"] = (len(absent), "count")
        record["absent"] = absent
        for name in absent:
            print("absent: %s" % name, file=sys.stderr)
        metrics = {k: _metric(v, u) for k, (v, u) in layers.items()}
    else:
        metrics = {k: _metric(statistics.median(s[k] for s in summaries),
                              UNITS[k])
                   for k in ("wall_s", "max_request_s", "peak_rss_mb")}
        metrics["ok_ratio"] = _metric(ok / len(ids), UNITS["ok_ratio"])
        metrics["setup_s"] = _metric(statistics.median(setup_times),
                                     UNITS["setup_s"])
    record["metrics"] = metrics

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-s%d-t%d.json" % (workload, seed, trace)), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for request_id, reasons in record["failures"].items():
        print("%s: %s" % (request_id, reasons[0]), file=sys.stderr)
    attempted = sum(check.attempts[r.id] for r in timed)
    return {"correct": timed_failed == 0, "attempted": attempted,
            "failed": timed_failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        OUT.mkdir(parents=True, exist_ok=True)
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print("benchmark: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
