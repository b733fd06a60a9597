"""Per-layer tracing of powmon from outside the library.

`Tracer.install` wraps the public entry points of each powmon module (and
the engine's methods) in spans.  A span adds its duration minus the time of
the spans it encloses to its layer's self time, so the layers' self times
partition the traced time: they never double count, and their sum is at
most the wall time of the pass.  Spans are aggregated as they close rather
than kept one by one, because the kernel alone is entered tens of
thousands of times per pass.  Hot constructors and comparisons are only
counted, never timed: their cost stays in the self time of the layer that
calls them (`decompose.materialize_s` for the sort of factorizations).
Layers and counters carry the names of the per-layer metrics they feed.

Nothing in src/ is changed; every wrapper is installed by assignment in
the traced worker process only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # time covered by children, per open span

    def span(self, layer: str, fn, count: str | None = None, on_result=None):
        """Wrap fn: its self time goes to `layer`, each call to `count`."""
        self_s, counts, open_spans = self.self_s, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if count:
                counts[count] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, count: str, fn):
        """Wrap fn to count its calls only."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from powmon import _kernels, cli, decompose, factorization, laboratory
        from powmon import numerical, powerset, puiseux, rational

        def kernel_result(pairs) -> None:
            self.counts["kernels.pairs_found"] += len(pairs)
            self.counts["kernels.pair_search_nonempty"] += bool(pairs)

        for kernel in (_kernels.masks_py, _kernels._masks_c):
            if kernel is not None:
                kernel.pair_search = self.span(
                    "kernels.pair_search_s", kernel.pair_search,
                    count="kernels.pair_search_calls", on_result=kernel_result,
                )

        engine = decompose._Engine
        for name in ("factorizations", "is_atom", "pair_decompositions", "atom_witness"):
            setattr(engine, name, self.span("decompose.engine_self_s", getattr(engine, name),
                                            count=f"decompose.{name}_calls"))
        engine.to_finset = self.counter("decompose.to_finset_calls", engine.to_finset)
        for name in ("set_factorizations", "set_length_set", "is_atom", "decompositions"):
            original = getattr(decompose, name)
            _wrap_function(original, self.span("decompose.materialize_s", original))

        finset = powerset.FinSet
        finset.__init__ = self.counter("powerset.finsets_built", finset.__init__)
        finset.__add__ = self.span("powerset.minkowski_s", finset.__add__,
                                   count="powerset.minkowski_calls")
        fact = factorization.Factorization
        fact.__init__ = self.counter("factorization.objects_built", fact.__init__)
        fact.__lt__ = self.counter("factorization.compare_calls", fact.__lt__)

        monoid = numerical.NumericalMonoid
        apery = monoid.__dict__["_compute_apery"].__func__
        monoid._compute_apery = staticmethod(self.span(
            "numerical.apery_build_s", apery, count="numerical.apery_builds"))
        monoid.divisors = self.span("numerical.divisors_s", monoid.divisors,
                                    count="numerical.divisors_calls")

        puiseux.ReprSolver.search = self.span("puiseux.repr_search_s", puiseux.ReprSolver.search,
                                              count="puiseux.repr_search_calls")
        puiseux.PuiseuxMonoid.mcd = self.span("puiseux.mcd_s", puiseux.PuiseuxMonoid.mcd)
        for name in ("example33", "geometric", "geometric_chain", "verify_atoms_by_valuation"):
            original = getattr(puiseux, name)
            _wrap_function(original, self.span("puiseux.families_self_s", original))

        _wrap_function(rational.is_prime, self.span(
            "rational.is_prime_s", rational.is_prime, count="rational.is_prime_calls"))
        _wrap_function(rational.next_prime_above, self.counter(
            "rational.next_prime_calls", rational.next_prime_above))

        for name in ("accp_chain_search", "bfm_check", "ffm_check", "mcd_probe",
                     "non_2mcd_witness", "example33_suite", "atomicity_sweep"):
            original = getattr(laboratory, name)
            _wrap_function(original, self.span("laboratory.self_s", original))

        _wrap_function(cli.main, self.span("cli.render_s", cli.main))


def _wrap_function(original, wrapper) -> None:
    """Rebind every powmon module's reference to `original`, so that names
    imported with `from .x import f` are traced as well."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "powmon" or module_name.startswith("powmon.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
