"""Span tracer that wraps freeconv's public functions from outside.

``Tracer.install`` replaces every module attribute (and class method)
that *is* one of the traced functions with a wrapper recording a span,
so names imported by value (``from .moments import
moments_from_resolvent`` inside ``resolvent``) are wrapped at every
import site.  Module code resolves those names at call time, which
captures internal calls such as ``move_to -> roots_at``.  ``uninstall``
puts the originals back; ``snapshot`` lets a caller prove that an
untraced run saw only the original objects.

A span is (layer, start, end, parent index, request id); spans live in
a list and are reduced to per-layer metrics at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# layer name -> [(module, attribute)]; "Class.method" names a method
LAYERS = {
    "resolvent.roots": [("resolvent", "roots_at")],
    "resolvent.continuation": [("resolvent", "BranchTracker.move_to")],
    "resolvent.seed": [("resolvent", "BranchTracker.__init__")],
    "resolvent.edges": [("resolvent", "support_edges")],
    "resolvent.inversion": [("resolvent", "density_curve"), ("resolvent", "density"),
                            ("resolvent", "potential_derivative")],
    "resolvent.quadrature": [("resolvent", "curve_integral")],
    "resolvent.cdf": [("resolvent", "cdf_interpolator")],
    "moments.series": [("moments", "moments_from_resolvent")],
    "moments.algebra": [("moments", "cumulants_from_moments"),
                        ("moments", "moments_from_cumulants"),
                        ("moments", "s_series_from_moments"),
                        ("moments", "boxtimes_moments")],
    "isotropic": [("isotropic", "radial_profile"), ("isotropic", "ring_radii"),
                  ("isotropic", "radial_cdf")],
    "closedform.cdf": [("closedform", "cdf_interpolator")],
    "closedform.curve": [("resolvent", "curve_from_callable")],
    "ensembles.sampling": [("ensembles", "sample_ginibre"), ("ensembles", "sample_haar_unitary")],
    "ensembles.eigen": [("ensembles", "hermitian_eigenvalues")],
    "ensembles.chain": [("ensembles", "build_sample")],
    "ensembles.pool": [("ensembles", "simulate")],
    "ensembles.ks": [("ensembles", "ks_distance")],
    "measures.build": [("measures", "build_resolvent")],
    "cli": [("cli", "main")],
}

# exceptions that roots_at raises and move_to turns into rejected steps
ROOT_ERRORS = ("NoConvergence", "DegreeDropError")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "freeconv" or name.startswith("freeconv."))]


def _resolve(module, attr):
    """(owner, name, original) or None when the program no longer has it."""
    owner = importlib.import_module(f"freeconv.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start, end, parent, request]
        self.counts = {}         # extra counters, e.g. resolvent.roots.errors
        self.request = None
        self._stack = []
        self._patched = []       # (owner, name, original)
        self.missing = []        # (layer, "module.attr") not found in the program
        from freeconv import errors
        self._root_errors = tuple(getattr(errors, n) for n in ROOT_ERRORS)

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        root_errors = self._root_errors if layer == "resolvent.roots" else ()
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.request]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except root_errors:
                self.counts["resolvent.roots.errors"] = self.counts.get(
                    "resolvent.roots.errors", 0) + 1
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    @contextlib.contextmanager
    def span(self, layer):
        """Record a span for the benchmark's own code (the request root)."""
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- patching -----------------------------------------------------------

    def install(self):
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append((layer, f"{module}.{attr}"))
                    continue
                owner, name, original = found
                wrapper = self._wrap(layer, original)
                if isinstance(owner, type):
                    self._patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
                    continue
                # every import site of a module-level function
                for mod in _modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------

    def layer_stats(self):
        """{layer: {"calls", "total_s", "self_s"}} plus nested-call counts
        used by the ratio metrics."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (layer, start, end, parent, _) in enumerate(spans):
            st = stats.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child[i]
        # nested counts: roots_at directly under move_to, move_to anywhere
        # under curve_integral
        layers = [s[0] for s in spans]
        roots_in_move = sum(1 for s in spans
                            if s[0] == "resolvent.roots" and s[3] >= 0
                            and layers[s[3]] == "resolvent.continuation")
        moves_in_quad = 0
        for s in spans:
            if s[0] != "resolvent.continuation":
                continue
            p = s[3]
            while p >= 0 and layers[p] != "resolvent.quadrature":
                p = spans[p][3]
            moves_in_quad += p >= 0
        return stats, {"roots_in_move": roots_in_move, "moves_in_quad": moves_in_quad}


def snapshot():
    """{(module name, attribute): object} for every traced function's
    import sites, to prove an untraced run ran on the originals."""
    out = {}
    originals = []
    for targets in LAYERS.values():
        for module, attr in targets:
            found = _resolve(module, attr)
            if found is not None:
                owner, name, original = found
                if isinstance(owner, type):
                    out[(owner.__qualname__, name)] = original
                else:
                    originals.append(original)
    for mod in _modules():
        for key, value in vars(mod).items():
            if any(value is o for o in originals):
                out[(mod.__name__, key)] = value
    return out


def unchanged(before):
    """True when every attribute recorded by ``snapshot`` is still the
    very same object."""
    after = snapshot()
    return after.keys() == before.keys() and all(after[k] is before[k] for k in before)
