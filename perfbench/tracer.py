"""In-memory call tracing of the pspsim layers, installed from outside the package.

Tracer.install() wraps every public function of every loaded pspsim module,
plus the CLI's serialize, validate and manifest stages, and rebinds each
wrapper in every pspsim namespace that holds the original: qkd, generation
and metrics take their pns functions with ``from .pns import ...``, so
patching pns alone would miss most calls.  Counts, inclusive time and self
time (inclusive time minus the time of traced callees) accumulate in memory
and are written once, by dump().
"""

import functools
import inspect
import json
import sys
import time

PACKAGE = "pspsim"
# Private CLI helpers traced as stages of writing a dataset.
CLI_STAGES = {"_write_rows": "serialize", "_self_validate": "validate",
              "_write_manifest": "manifest"}
ESTIMATORS = ("keyrate_nondecoy", "keyrate_wcs_decoy", "keyrate_psp_passive",
              "keyrate_psp_triggered")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.functions = {}  # "layer.function" -> [calls, inclusive s, self s]
        self.counters = {
            "gram_entries": 0,       # Gram-matrix entries built by states projections
            "mass_repeats": 0,       # modular_poisson_mass calls with an argument tuple seen before
            "optimize_evals": 0,     # keyrate_for_protocol calls made inside optimize_mu
            "estimator_results": 0,  # results returned by the four key-rate estimators
            "vacuous_results": 0,    # ... of which at rate 0 or flagged vacuous
            "rows": 0,               # dataset rows serialized by the CLI
        }
        self._child_time = [0.0]
        self._active = {}
        self._seen_masses = set()
        self._observers = {
            "states.vacuum_probability":
                lambda a, k, r: self._gram(_arg(a, k, 0, "state").term_count ** 2),
            "states.inner_product":
                lambda a, k, r: self._gram(_arg(a, k, 0, "x").term_count
                                           * _arg(a, k, 1, "y").term_count),
            "states.project_mode":
                lambda a, k, r: self._gram(_arg(a, k, 0, "state").term_count
                                           * _arg(a, k, 2, "bra").term_count),
            "pns.modular_poisson_mass": self._mass,
            "qkd.keyrate_for_protocol": self._evaluation,
            "cli._write_rows": self._rows,
        }
        for name in ESTIMATORS:
            self._observers["qkd." + name] = self._estimate

    def _gram(self, entries):
        self.counters["gram_entries"] += entries

    def _mass(self, args, kwargs, result):
        key = args + tuple(sorted(kwargs.items()))
        if key in self._seen_masses:
            self.counters["mass_repeats"] += 1
        else:
            self._seen_masses.add(key)

    def _evaluation(self, args, kwargs, result):
        if self._active.get("qkd.optimize_mu"):
            self.counters["optimize_evals"] += 1

    def _estimate(self, args, kwargs, result):
        self.counters["estimator_results"] += 1
        if result.rate == 0.0 or "vacuous" in result.diagnostics:
            self.counters["vacuous_results"] += 1

    def _rows(self, args, kwargs, result):
        self.counters["rows"] += len(_arg(args, kwargs, 3, "rows"))

    def wrap(self, name, func):
        """Return func wrapped to record its calls under name."""
        stats = self.functions.setdefault(name, [0, 0.0, 0.0])
        observe = self._observers.get(name)
        child_time = self._child_time
        active = self._active
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            active[name] = active.get(name, 0) + 1
            child_time.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                child_time[-1] += elapsed
                active[name] -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the functions of every loaded pspsim module in place."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
                   and n != PACKAGE + ".__main__"]
        wrappers = {}
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            layer = module.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_STAGES):
                    continue
                wrappers[obj] = self.wrap("%s.%s" % (layer, attr), obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path, **extra):
        """Write the aggregates as JSON; extra keys are stored alongside."""
        record = dict(extra)
        record["functions"] = {
            name: {"calls": calls, "inclusive_s": incl, "self_s": own}
            for name, (calls, incl, own) in sorted(self.functions.items())
        }
        record["counters"] = dict(self.counters)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
