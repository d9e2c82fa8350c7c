"""Spans around the public functions of each supersym module, installed
from the benchmark's own files (the program itself carries no tracing).

A span is (name, start, end, parent span, task id).  Spans are kept in
compact arrays while the traced run goes and written out when it ends;
self time is a span's duration minus the part its child spans cover.

``from .enveloping import symmetrize_word`` copies the function object
into the importing module, so a wrapper is installed in every namespace
that binds the original (module globals, the package namespace, and
aliases such as ``__rmul__ = __mul__`` inside a class).  A call that
escapes its span shows up as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import Counter

MODULES = ("cli", "linalg", "liealg", "superpoly", "series", "enveloping", "coderiv", "jacobian")

# Methods that the per-layer metrics name, by module and class.
METHODS = {
    "enveloping": {"Factorization": ("__init__", "coordinates"), "PbwElement": ("__mul__",)},
    "superpoly": {"SuperPolynomial": ("__mul__",)},
    "liealg": {"SuperMatrix": ("__mul__",), "LieSuperAlgebra": ("bracket", "check_jacobi")},
    "jacobian": {"GenericPoint": ("ad_y_power",)},
    "series": {"TruncatedSeries1": ("__mul__",), "TruncatedSeries2": ("__mul__",)},
}

# Sign and parity helpers called once per term inside the loops of the
# functions above: a span each would cost more than the work it times, so
# their time stays in the caller's self time.
HELPERS = {
    "superpoly.parity_of",
    "liealg.coefficient_parity",
    "enveloping.monomial_parity",
    "enveloping.koszul_sign_of_permutation",
    "coderiv.koszul_sign",
}


def span_name(module: str, qualname: str) -> str:
    """``Factorization.__init__`` -> ``enveloping.Factorization.init``."""
    parts = [p.strip("_") if p.startswith("__") else p for p in qualname.split(".")]
    return ".".join([module] + parts)


def targets(sup):
    """(span name, module name, function) for every function the traced
    run wraps in the imported package ``sup`` (a run.Supersym)."""
    out = []
    for mod_name in MODULES:
        module = getattr(sup, mod_name)
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__ or inspect.isgeneratorfunction(value):
                continue
            name = span_name(mod_name, attr)
            if name not in HELPERS:
                out.append((name, mod_name, value))
        for cls_name, methods in METHODS.get(mod_name, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                out.append((span_name(mod_name, f"{cls_name}.{meth}"), mod_name, vars(cls)[meth]))
    return out


class Tracer:
    """Records spans while ``task`` is not None; passes calls through
    otherwise (set-up and the benchmark's own answer checks)."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.tasks = array("i")
        self.stack = []
        self.task = None
        self.errors = Counter()
        self.rref_cells = 0
        self.factorization_size = 0
        self.nf_cacheable = 0
        self.nf_hits = 0
        self._installed = []

    # -- installation ---------------------------------------------------------

    def install(self, sup):
        wrappers = {}
        for name, mod_name, fn in targets(sup):
            wrappers[id(fn)] = (fn, self._wrap(name, mod_name, fn))
        owners = [sup.package]
        for mod_name in MODULES:
            module = getattr(sup, mod_name)
            owners.append(module)
            owners.extend(
                cls for cls in vars(module).values()
                if inspect.isclass(cls) and cls.__module__ == module.__name__
            )
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed = []

    def _wrap(self, name, mod_name, fn):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, name_ids, parents, tasks, stack = (
            self.starts, self.ends, self.name_ids, self.parents, self.tasks, self.stack
        )
        errors = self.errors
        clock = time.perf_counter
        probe = _PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            task = tracer.task
            if task is None:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            tasks.append(task)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[mod_name] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self, scales=None):
        """{span name: [calls, total_s, self_s]} and the time covered by
        root spans per task id; times are multiplied by ``scales[task]``."""
        n = len(self.starts)
        dur = array("d", (self.ends[i] - self.starts[i] for i in range(n)))
        if scales is not None:
            for i in range(n):
                dur[i] *= scales[self.tasks[i]]
        child = array("d", bytes(8 * n))
        root = Counter()
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root[self.tasks[i]] += dur[i]
        table = {}
        for i in range(n):
            row = table.setdefault(self.names[self.name_ids[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return table, root

    def write_spans(self, path):
        """Tab-separated, gzip-compressed: a pass can hold 10^5 spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\ttask\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t{self.tasks[i]}\n"
                )


# -- counts read at layer boundaries -------------------------------------------

def _probe_rref(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    tracer.rref_cells += len(rows) * (len(rows[0]) if rows else 0)


def _probe_normal_form(tracer, args, kwargs):
    if len(args) > 3 or kwargs.get("choose") is not None:
        return
    alg, word = args[0], args[1] if len(args) > 1 else kwargs["word"]
    tracer.nf_cacheable += 1
    cache = getattr(alg, "_normal_form_cache", None)
    if cache is not None and tuple(word) in cache:
        tracer.nf_hits += 1


def _probe_factorization(tracer, args, kwargs):
    pair, max_degree = args[1], args[2] if len(args) > 2 else kwargs["max_degree"]
    alg = pair.algebra
    # PBW basis length: odd (parity 1) exponents 0/1, even ones free, total <= D
    counts = [1] + [0] * max_degree
    for p in alg.parities:
        step = (0, 1) if p == 1 else range(max_degree + 1)
        counts = [sum(counts[d - e] for e in step if e <= d) for d in range(max_degree + 1)]
    tracer.factorization_size += sum(counts)


_PROBES = {
    "linalg.rref": _probe_rref,
    "enveloping.normal_form": _probe_normal_form,
    "enveloping.Factorization.init": _probe_factorization,
}
