"""Run one `liecas` CLI request with its public layer functions timed.

    python3 perfbench/trace_launcher.py SPANS_OUT REQUEST_ID -- ARGV...

The launcher wraps each function in TRACED from outside the package, then
calls `liecas.cli.main(ARGV)` and exits with its status.  A module-level
function is rebound under every name that binds it in every `liecas`
module (`u_mul` is also imported by `virtual_copy`, `contraction` and
`catalog`); a method is patched on its class.  Every call records a span
in memory: name, start, end and the index of its parent span.  When the
request ends the spans go to SPANS_OUT as JSON, with the counters that
are read after the run and the names that no longer exist.
"""

import functools
import importlib
import json
import pkgutil
import sys
import time

# (module, attribute); "Class.method" patches the class attribute
TRACED = (
    ("casimir_gen", "char_poly_coefficients"),
    ("casimir_gen", "casimir_set"),
    ("invariants", "is_invariant"),
    ("invariants", "invariant_count"),
    ("enveloping", "u_mul"),
    ("enveloping", "u_commutator"),
    ("enveloping", "pbw_normalize"),
    ("enveloping", "symmetrize"),
    ("virtual_copy", "verify"),
    ("virtual_copy", "build_operators"),
    ("contraction", "contract_copy"),
    ("contraction", "contract_algebra"),
    ("linalg", "rank"),
    ("exterior", "j0_estimate_with_witness"),
    ("exterior", "wedge_rank"),
    ("exterior", "mc_differential"),
    ("lie_core", "LieAlgebra.validate"),
    ("lie_core", "algebra_from_json"),
    ("catalog", "build"),
    ("cli", "main"),
)


def span_name(module, attr):
    """Metric prefix of a traced function: methods drop their class."""
    return "%s.%s" % (module, attr.rsplit(".", 1)[-1])


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.absent = []
        self.algebras = []       # every LieAlgebra a request built
        self.symmetrized_terms = 0

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result)
            return result
        return traced

    def install(self, package):
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(
                "%s.%s" % (package.__name__, info.name))
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            owner = modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(leaf)
            if not callable(original):
                self.absent.append(name)
                continue
            after = (self._count_symmetrized
                     if (module_name, attr) == ("enveloping", "symmetrize")
                     else None)
            wrapper = self.wrap(name, original, after)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
        algebra_class = getattr(modules.get("lie_core"), "LieAlgebra", None)
        if algebra_class is not None:
            init = algebra_class.__init__

            @functools.wraps(init)
            def recording_init(algebra, *args, **kwargs):
                init(algebra, *args, **kwargs)
                self.algebras.append(algebra)
            algebra_class.__init__ = recording_init
        return modules

    def _count_symmetrized(self, element):
        self.symmetrized_terms += len(element.terms)

    def pbw_cache_entries(self):
        sizes = [len(a._pbw_cache) for a in self.algebras
                 if hasattr(a, "_pbw_cache")]
        return max(sizes) if sizes else None


def main(argv):
    spans_out, request_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: trace_launcher.py SPANS_OUT REQUEST_ID "
                         "-- ARGV...")
    import liecas
    tracer = Tracer()
    modules = tracer.install(liecas)
    code = 1
    try:
        code = modules["cli"].main(cli_argv)
    finally:
        sys.stdout.flush()
        doc = {
            "request": request_id,
            "spans": tracer.spans,
            "absent": tracer.absent,
            "pbw_cache_entries": tracer.pbw_cache_entries(),
            "symmetrized_terms": (None if "enveloping.symmetrize"
                                  in tracer.absent
                                  else tracer.symmetrized_terms),
            "ucheck_degree_cap": getattr(modules.get("casimir_gen"),
                                         "UCHECK_DEGREE_CAP", None),
        }
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
