"""Per-layer tracing of sintdyn from outside the package.

``Tracer.install`` wraps the listed public functions of each layer in every
sintdyn module that binds the name (``from .ffpoly import factorize`` binds
``factorize`` in several modules), the six entry points of
``sintdyn._kernel`` (``ffpoly`` looks them up at call time) and
``OmegaSource.mark``.  Each wrapped call appends one span to an in-memory
list; ``Tracer.metrics`` turns the spans into calls and self time per
function once the jobs have run.  Self time is a span's duration minus the
time its child spans cover.  No file of the package is edited.
"""

import sys
import time

KERNEL_OPS = ("mul", "rem", "div_rem", "mul_mod", "pow_mod", "gcd")
# kernel ops reported per degree band; the band uses the modulus degree
# where there is a modulus (argument index given), otherwise the larger operand
BANDED_OPS = {"mul": None, "rem": 1, "mul_mod": 2, "pow_mod": 2, "gcd": None}
BANDS = ("deglt32", "deg32_127", "deg128_511", "degge512")
LAYER_FUNCTIONS = {
    "ffpoly": ("factorize", "is_irreducible"),
    "cyclofactor": ("factor_tn_minus_1", "cyclotomic_poly"),
    "orders": ("poly_order", "ord_in_tn_minus_1", "ord_brute", "multiplicative_order"),
    "places": ("enumerate_places",),
    "system": ("periodic_exponent",),
    "zeta": ("zeta_coefficients", "find_linear_recurrence", "orbit_counts", "counts_from_series"),
    "limitset": ("growth_sequence", "verify_construction", "cluster_limits", "artin_primes"),
}
CACHES = {
    "cyclofactor.factor_cache": ("cyclofactor", "_cyclotomic_factors"),
    "orders.order_cache": ("orders", "_irreducible_order"),
}
CLI = "cli"


def band(degree: int) -> str:
    if degree < 32:
        return "deglt32"
    if degree < 128:
        return "deg32_127"
    if degree < 512:
        return "deg128_511"
    return "degge512"


def _band_of(op: str):
    if op not in BANDED_OPS:
        return None
    modulus = BANDED_OPS[op]
    if modulus is None:
        return lambda args: band(max(len(args[0]), len(args[1])) - 1)
    return lambda args: band(len(args[modulus]) - 1)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for op in KERNEL_OPS:
        units[f"kernel.{op}.calls"] = "count"
        units[f"kernel.{op}.self_s"] = "s"
    for op in BANDED_OPS:
        for b in BANDS:
            units[f"kernel.{op}.calls.{b}"] = "count"
            units[f"kernel.{op}.self_s.{b}"] = "s"
    units["kernel.pow_mod.exp_bits"] = "bits"
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units["system.mark.calls"] = "count"
    for cache in CACHES:
        units[f"{cache}.hits"] = "count"
        units[f"{cache}.misses"] = "count"
    units["cli.self_s"] = "s"
    units["cli.doc_bytes"] = "bytes"
    return units


class Tracer:
    def __init__(self):
        # (name, band or None, start, end, parent span index or -1)
        self.spans = []
        self._stack = [-1]
        self._mark_calls = 0
        self._exp_bits = 0

    def _wrap(self, fn, name, band_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_bits = name == "kernel.pow_mod"

        def traced(*args, **kwargs):
            degree_band = band_of(args) if band_of else None
            if counts_bits:
                self._exp_bits += args[1].bit_length()
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, degree_band, start, end, parent)

        return traced

    def install(self):
        """Wrap every traced function of the imported sintdyn package."""
        package = {
            name: module
            for name, module in sys.modules.items()
            if name == "sintdyn" or name.startswith("sintdyn.")
        }
        for layer, functions in LAYER_FUNCTIONS.items():
            for fn_name in functions:
                original = getattr(package[f"sintdyn.{layer}"], fn_name)
                self._rebind(package, original, self._wrap(original, f"{layer}.{fn_name}"))
        kernel = package["sintdyn._kernel"]
        for op in KERNEL_OPS:
            original = getattr(kernel, op)
            setattr(kernel, op, self._wrap(original, f"kernel.{op}", _band_of(op)))
        omega_source = package["sintdyn.system"].OmegaSource
        mark = omega_source.mark

        def counted_mark(source, v):
            self._mark_calls += 1
            return mark(source, v)

        omega_source.mark = counted_mark

    @staticmethod
    def _rebind(package, original, wrapper):
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def trace_job(self, main):
        """Wrap the CLI entry point; its self time is parsing and output."""
        return self._wrap(main, CLI)

    def metrics(self, doc_bytes: int) -> dict[str, float]:
        values = dict.fromkeys(metric_units(), 0)
        child_time = [0.0] * len(self.spans)
        for name, degree_band, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, degree_band, start, end, _), children in zip(self.spans, child_time):
            self_s = end - start - children
            if name == CLI:
                values["cli.self_s"] += self_s
                continue
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += self_s
            if degree_band is not None:
                values[f"{name}.calls.{degree_band}"] += 1
                values[f"{name}.self_s.{degree_band}"] += self_s
        values["kernel.pow_mod.exp_bits"] = self._exp_bits
        values["system.mark.calls"] = self._mark_calls
        for cache, (layer, fn_name) in CACHES.items():
            info = getattr(sys.modules[f"sintdyn.{layer}"], fn_name).cache_info()
            values[f"{cache}.hits"] = info.hits
            values[f"{cache}.misses"] = info.misses
        values["cli.doc_bytes"] = doc_bytes
        return values
