"""The benchmark's three workloads, as fixed lists of `liecas` CLI requests.

Every input is fixed by name except the `--seed` of `count` requests,
which the workload seed sets.  A request is one `python -m liecas.cli`
invocation.  A probe is a request for a known defect: its output is
checked against the reference of another request (`probe_of`), it counts
in `ok_ratio`, and it is kept out of the timed pass.
"""

import json
from dataclasses import dataclass

# structure-probe reads algebra-only JSON files; setup writes them from
# `catalog --format json` dumps (the dump itself feeds one probe)
PROBE_ALGEBRAS = (("so", 9), ("weyl_quesne", 5), ("QHa", 7), ("QHa", 9))

WORKLOADS = ("casimir-chain", "copy-verify", "structure-probe")


@dataclass(frozen=True)
class Request:
    id: str
    argv: tuple
    probe_of: str | None = None


def _family(cmd, family, N=None):
    argv = [cmd, "--family", family]
    if N is not None:
        argv += ["--N", str(N)]
    return argv


def _weights(names):
    return json.dumps({n: 1 for n in names}, sort_keys=True)


def _vectors(letters, N):
    return ["%s_%d" % (letter, k) for letter in letters
            for k in range(1, N + 1)]


def algebra_file(data_dir, family, N):
    return "%s/%s%d.json" % (data_dir, family, N)


def dump_file(data_dir, family, N):
    return "%s/%s%d_dump.json" % (data_dir, family, N)


def requests(workload, seed, data_dir):
    """The workload's requests in the order a pass runs them."""
    if workload == "casimir-chain":
        out = [Request("casimirs:%s:%d" % (f, N), _family("casimirs", f, N))
               for f, N in (("Ha", 4), ("Ha", 5), ("IHa", 3), ("IHa", 4),
                            ("QHa", 3))]
    elif workload == "copy-verify":
        out = [Request("verify-copy:%s:%d" % (f, N),
                       _family("verify-copy", f, N))
               for f, N in (("QHa", 5), ("QHa", 7), ("IHa", 7), ("Ha", 9),
                            ("weyl_quesne", 4))]
        out += [
            Request("contract:boson_example",
                    _family("contract", "boson_example")
                    + ["--weights", _weights(["Q_1", "P_1", "E", "T"])]),
            Request("contract:IHa:6",
                    _family("contract", "IHa", 6)
                    + ["--weights",
                       _weights(["E", "R", "T"] + _vectors("FG", 6))]),
            Request("contract:QHa:5",
                    _family("contract", "QHa", 5)
                    + ["--weights", _weights(["R"] + _vectors("G", 5))]),
        ]
    elif workload == "structure-probe":
        out = []
        for family, N in PROBE_ALGEBRAS:
            path = algebra_file(data_dir, family, N)
            tag = "%s%d" % (family, N)
            commands = [("validate", ["validate"])]
            if (family, N) != ("QHa", 9):
                commands.append(("count-bb", ["count", "--method", "bb"]))
            commands.append(("count-bb1", ["count", "--method", "bb1"]))
            commands.append(("mc", ["mc"]))
            for name, argv in commands:
                if argv[0] == "count":
                    argv = argv + ["--seed", str(seed)]
                out.append(Request("%s:%s" % (name, tag),
                                   argv + ["--algebra", path]))
        out.append(Request("contract:QHa9",
                           ["contract", "--algebra",
                            algebra_file(data_dir, "QHa", 9), "--weights",
                            _weights(["R"] + _vectors("G", 9))]))
        # variable count 78 exceeds polynomial.MAX_VARIABLES under bb
        out.append(Request("probe:count-bb:QHa9",
                           ["count", "--method", "bb", "--seed", str(seed),
                            "--algebra", algebra_file(data_dir, "QHa", 9)],
                           probe_of="count-bb1:QHa9"))
        # validate does not unwrap a catalog dump, unlike every other route
        out.append(Request("probe:validate-dump:QHa9",
                           ["validate", "--algebra",
                            dump_file(data_dir, "QHa", 9)],
                           probe_of="validate:QHa9"))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return [Request(r.id, tuple(r.argv) + ("--format", "json"), r.probe_of)
            for r in out]
