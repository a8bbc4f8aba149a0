"""Out-of-program tracer: wraps magnonlab's functions from outside.

``Tracer.install()`` replaces every public function of the seven modules
(plus a few named private helpers and eigensystem methods) with a wrapper
that records a span ``(id, name, start, end, parent)``. Every module-level
binding of the same function object is replaced too, so names that one
module imported from another (``cli.spectroscopy_two``) and dispatch
tables (``cli.EXPERIMENTS``) are traced as well. ``ThreadPoolExecutor``
submissions inherit the submitting span as parent, so work done in a pool
is charged to the span that caused it. ``uninstall()`` restores every
original object.

Nothing is required to exist: a function or cache that the program no
longer has is simply not wrapped, and its metrics come out absent.
"""

import functools
import inspect
import itertools
import os
import threading
from concurrent.futures import thread as futures_thread
from time import perf_counter

MODULES = ("model", "spectral", "evolve", "probes", "sampling", "entropy", "cli")

# private helpers worth a span of their own
PRIVATE = {
    "cli": ("_execute",),
    "probes": ("_cached_sector", "_pair_lowering_block", "_walsh_hadamard"),
    "evolve": ("_pulse_eigensystem",),
}
METHODS = {
    "model": (("SectorOperator", "eigensystem"),),
    "spectral": (("TwoMagnonBlock", "eigensystem"),),
}
# lru caches read through cache_info(): metric stem -> (module, attribute)
CACHES = {
    "probes.cached_sector": ("probes", "_cached_sector"),
    "probes.pair_lowering": ("probes", "_pair_lowering_block"),
    "evolve.pulse_eig": ("evolve", "_pulse_eigensystem"),
}
_MISSING = object()


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _eig_pre(fn, args, kwargs):
    return getattr(args[0], "_eig", _MISSING) if args else _MISSING


def _eig_post(counts, fn, args, kwargs, result, pre):
    if pre is _MISSING:
        raise LookupError("no lazy _eig slot: misses cannot be read")
    if pre is None:  # the lazy eigendecomposition ran in this call
        counts["model.eigensystem.misses"] += 1
        counts["model.eigh_dim3_sum"] += int(args[0].dim) ** 3


def _sector_post(counts, fn, args, kwargs, result, pre):
    counts["model.sector_dim_max"] = max(counts["model.sector_dim_max"], int(result.dim))


def _counter(key, arg, measure):
    def post(counts, fn, args, kwargs, result, pre):
        value = result if arg is None else _bound(fn, args, kwargs, arg)
        counts[key] += measure(value)
    return post


# span name -> (pre hook or None, post hook); hooks run outside the span. A
# hook that raises (the program changed shape) marks the span's counts as
# untracked, which makes the metrics derived from them absent.
HOOKS = {
    "model.SectorOperator.eigensystem": (_eig_pre, _eig_post),
    "model.sector_hamiltonian": (None, _sector_post),
    "evolve.floquet_evolve": (None, _counter("evolve.floquet_steps", "n_steps", int)),
    "spectral.phase_diagram": (None, _counter("spectral.phase_rows", None,
                                              lambda r: len(r.k))),
    "sampling.jackknife": (None, _counter("sampling.jackknife.rows", "snapshots",
                                          lambda s: int(s.n_retained))),
    "sampling.save_snapshots": (None, _counter("sampling.save_snapshots.bytes", "path",
                                               lambda p: os.path.getsize(p))),
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Collects spans and counters in memory while installed."""

    def __init__(self, package):
        self.package = package  # the imported ``magnonlab`` package
        self.spans = []
        self.counts = _Counts()
        self.wrapped = []
        self.untracked = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._cache_start = {}

    # ----------------------------------------------------------- install

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        pre_hook, post_hook = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = pre_hook(fn, args, kwargs) if pre_hook else None
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if post_hook:
                try:
                    post_hook(tracer.counts, fn, args, kwargs, result, pre)
                except Exception:  # never let the tracer break the program
                    tracer.untracked.add(name)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):  # keep lru_cache's interface on the wrapper
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _targets(self):
        """(span name, owner, attribute, original) for everything to wrap."""
        out = []
        for mod_name in MODULES:
            mod = getattr(self.package, mod_name, None)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in PRIVATE.get(mod_name, ()):
                    continue
                if not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                out.append((f"{mod_name}.{attr}", mod, attr, obj))
            for cls_name, meth in METHODS.get(mod_name, ()):
                cls = getattr(mod, cls_name, None)
                if isinstance(cls, type) and meth in cls.__dict__:
                    out.append((f"{mod_name}.{cls_name}.{meth}", cls, meth,
                                cls.__dict__[meth]))
        return out

    def install(self):
        for stem, (mod_name, attr) in CACHES.items():
            fn = getattr(getattr(self.package, mod_name, None), attr, None)
            if hasattr(fn, "cache_info"):
                self._cache_start[stem] = (fn, fn.cache_info())
        replacements = {}
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            replacements[id(original)] = wrapper
            self._set(owner, attr, wrapper)
            self.wrapped.append(name)
        # rebind imported names and dispatch-table entries to the wrappers
        for mod_name in MODULES:
            mod = getattr(self.package, mod_name, None)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._set(mod, attr, replacements[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if callable(val) and id(val) in replacements:
                            self._patches.append((obj, key, val))
                            obj[key] = replacements[id(val)]
        self._patch_pool()
        return self

    def _patch_pool(self):
        tracer = self
        pool_cls = futures_thread.ThreadPoolExecutor
        original = pool_cls.__dict__["submit"]

        def submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            inherited = [stack[-1]] if stack else []

            def run(*a, **k):
                saved = getattr(tracer._local, "stack", None)
                tracer._local.stack = list(inherited)
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.stack = saved

            return original(pool, run, *args, **kwargs)

        self._set(pool_cls, "submit", submit)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def record(self):
        """Plain-data trace: spans, counters and cache deltas."""
        caches = {}
        for stem, (fn, start) in self._cache_start.items():
            info = fn.cache_info()
            caches[stem] = {"hits": info.hits - start.hits,
                            "misses": info.misses - start.misses}
        return {
            "spans": [list(s) for s in sorted(self.spans)],
            "counts": dict(self.counts),
            "caches": caches,
            "wrapped": sorted(self.wrapped),
            "untracked": sorted(self.untracked),
        }


# ---------------------------------------------------------------- summary


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(record):
    """Per span name: calls, busy seconds (outermost calls) and self seconds."""
    spans = {s[0]: s for s in record["spans"]}
    children = {}
    for sid, name, start, end, parent in spans.values():
        children.setdefault(parent, []).append((start, end))
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in record["wrapped"]}
    for sid, name, start, end, parent in spans.values():
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        inner = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        row["self_s"] += (end - start) - _union_length([iv for iv in inner
                                                        if iv[0] < iv[1]])
        up = parent
        while up is not None and spans[up][1] != name:
            up = spans[up][4]
        if up is None:  # not nested in another call of the same function
            row["s"] += end - start
    return table


def _module_self(table, module):
    rows = [r for n, r in table.items() if n.split(".", 1)[0] == module]
    return sum(r["self_s"] for r in rows) if rows else None


def per_layer(record, bytes_written=None, overhead_s=None):
    """The benchmark's per-layer metrics; an absent source gives no entry."""
    table = span_table(record)
    counts = record["counts"]
    caches = record["caches"]

    def field(name, key):
        return table[name][key] if name in table else None

    def counted(name, count_key):
        if name not in table or name in record["untracked"]:
            return None
        return counts.get(count_key, 0)

    def ratio(name, count_key):
        busy, n = field(name, "s"), counted(name, count_key)
        if busy is None or n is None:
            return None
        return busy / n if n else 0.0

    def cache(stem, key):
        return caches[stem][key] if stem in caches else None

    eig = "model.SectorOperator.eigensystem"
    metrics = {
        "model.eigensystem.s": field(eig, "s"),
        "model.eigensystem.calls": field(eig, "calls"),
        "model.eigensystem.misses": counted(eig, "model.eigensystem.misses"),
        "model.eigh_dim3_sum": counted(eig, "model.eigh_dim3_sum"),
        "model.sector_hamiltonian.s": field("model.sector_hamiltonian", "s"),
        "model.sector_hamiltonian.calls": field("model.sector_hamiltonian", "calls"),
        "model.sector_dim_max": counted("model.sector_hamiltonian", "model.sector_dim_max"),
        "model.enumerate_sector.s": field("model.enumerate_sector", "s"),
        "model.enumerate_sector.calls": field("model.enumerate_sector", "calls"),
        "model.build_full_hamiltonian.s": field("model.build_full_hamiltonian", "s"),
        "model.build_full_hamiltonian.calls": field("model.build_full_hamiltonian",
                                                    "calls"),
        "probes.ising_phase_state.s": field("probes.ising_phase_state", "s"),
        "probes.ising_phase_state.calls": field("probes.ising_phase_state", "calls"),
        "probes.spectroscopy_two.s": field("probes.spectroscopy_two", "s"),
        "probes.spectroscopy_two.self_s": field("probes.spectroscopy_two", "self_s"),
        "probes.spectroscopy_two.calls": field("probes.spectroscopy_two", "calls"),
        "probes.walsh_hadamard.s": field("probes._walsh_hadamard", "s"),
        "probes.pair_lowering.s": field("probes._pair_lowering_block", "s"),
        "probes.cached_sector.hits": cache("probes.cached_sector", "hits"),
        "probes.cached_sector.misses": cache("probes.cached_sector", "misses"),
        "probes.pair_lowering.hits": cache("probes.pair_lowering", "hits"),
        "probes.pair_lowering.misses": cache("probes.pair_lowering", "misses"),
        "evolve.floquet_evolve.s": field("evolve.floquet_evolve", "s"),
        "evolve.floquet_evolve.calls": field("evolve.floquet_evolve", "calls"),
        "evolve.floquet_step_s": ratio("evolve.floquet_evolve", "evolve.floquet_steps"),
        "evolve.pulse_eig.s": field("evolve._pulse_eigensystem", "s"),
        "evolve.pulse_eig.hits": cache("evolve.pulse_eig", "hits"),
        "evolve.pulse_eig.misses": cache("evolve.pulse_eig", "misses"),
        "evolve.exact_evolve.s": field("evolve.exact_evolve", "s"),
        "evolve.exact_evolve.calls": field("evolve.exact_evolve", "calls"),
        "spectral.phase_diagram.s": field("spectral.phase_diagram", "s"),
        "spectral.phase_row_s": ratio("spectral.phase_diagram", "spectral.phase_rows"),
        "spectral.two_magnon_block.s": field("spectral.two_magnon_block", "s"),
        "spectral.two_magnon_block.calls": field("spectral.two_magnon_block", "calls"),
        "spectral.block_eigensystem.s": field("spectral.TwoMagnonBlock.eigensystem", "s"),
        "spectral.block_eigensystem.calls": field("spectral.TwoMagnonBlock.eigensystem",
                                                  "calls"),
        "spectral.dispersion_two.s": field("spectral.dispersion_two", "s"),
        "sampling.jackknife.s": field("sampling.jackknife", "s"),
        "sampling.jackknife.calls": field("sampling.jackknife", "calls"),
        "sampling.jackknife.rows": counted("sampling.jackknife", "sampling.jackknife.rows"),
        "sampling.sample_snapshots.s": field("sampling.sample_snapshots", "s"),
        "sampling.save_snapshots.s": field("sampling.save_snapshots", "s"),
        "sampling.save_snapshots.bytes": counted("sampling.save_snapshots",
                                                 "sampling.save_snapshots.bytes"),
        "entropy.subsystem_entropy.s": field("entropy.subsystem_entropy", "s"),
        "entropy.subsystem_entropy.calls": field("entropy.subsystem_entropy", "calls"),
        "entropy.mutual_information.s": field("entropy.mutual_information", "s"),
        "entropy.config_mutual_proxy_exact.s": field("entropy.config_mutual_proxy_exact",
                                                     "s"),
        "cli.execute.s": field("cli._execute", "s"),
        "cli.execute.calls": field("cli._execute", "calls"),
        "cli.write_csv.s": field("cli.write_csv", "s"),
        "cli.write_manifest.s": field("cli.write_manifest", "s"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": overhead_s,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = _module_self(table, module)
    return {k: v for k, v in metrics.items() if v is not None}


def unit_of(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes") or metric == "cli.bytes_written":
        return "bytes"
    return "count"
