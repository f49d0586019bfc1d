"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: public functions and
methods of ``trkalian`` are replaced by attribute with timing wrappers for the
duration of a traced run, and every alias of a wrapped function in the
package's modules is replaced too, so internal calls are seen as well.  The
program itself is not modified.

A span is (name, tag, start, end, parent index, op id).  A span opened inside
a span of the same name is not recorded (a plane integral inside the grid
transform is one ``radon.forward`` span); its counts still are.  A module's
self time is its spans' durations minus the durations of their direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _n_points(x) -> int:
    a = np.asarray(x)
    return int(a.size // 3) if a.ndim and a.shape[-1] == 3 else 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _enter(self, name: str, tag: str | None):
        if self._stack and self.spans[self._stack[-1]][0] == name:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, idx) -> None:
        if idx is None:
            return
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        if not self.active:
            yield
            return
        idx = self._enter(name, tag)
        try:
            yield
        finally:
            self._exit(idx)

    def traced(self, fn, name, count=None):
        """Wrap ``fn``; ``name`` is a span name or a function of the call's
        arguments; ``count(args, kwargs, result)`` returns counter increments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            idx = tracer._enter(span_name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def patch_function(self, module, attr: str, name, count=None, wrap=None) -> None:
        """Replace ``module.attr`` and all its aliases inside the package."""
        orig = getattr(module, attr)
        new = wrap(orig) if wrap is not None else self.traced(orig, name, count)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, orig))

    def patch_method(self, cls, attr: str, name, count=None) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.traced(orig, name, count))
        self._undo.append(lambda: setattr(cls, attr, orig))

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    # -- aggregation -------------------------------------------------------
    def summary(self, op_walls: dict[int, float]) -> dict:
        """Per-op averages of span times, self times, counts and coverage."""
        n_ops = max(len(op_walls), 1)
        child = defaultdict(float)
        for name, tag, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive = defaultdict(float)
        module_self = defaultdict(float)
        covered = defaultdict(float)
        open_names: dict[int, set] = {}
        for i, (name, tag, t0, t1, parent, op) in enumerate(self.spans):
            dur = t1 - t0
            ancestors = open_names.get(parent, set()) if parent >= 0 else set()
            open_names[i] = ancestors | {name}
            if name not in ancestors:
                inclusive[name] += dur
                if tag is not None:
                    inclusive[f"{name}.{tag}"] += dur
            module_self[name.split(".")[0]] += dur - child[i]
            if parent < 0:
                covered[op] += dur
        out = {f"{k}.s": v / n_ops for k, v in inclusive.items()}
        out.update({f"{m}.self.s": v / n_ops for m, v in module_self.items()})
        out.update({k: v / n_ops for k, v in self.counts.items()})
        shares = [covered[op] / wall for op, wall in op_walls.items() if wall > 0]
        out["trace.coverage"] = float(np.median(shares)) if shares else 0.0
        return out

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as handle:
            for name, tag, t0, t1, parent, op in self.spans:
                handle.write(json.dumps([name, tag, t0, t1, parent, op]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every trkalian module."""
    from trkalian import (biotsavart, cktransform, cli, core, fields, moses, radon,
                          rbs, verify)

    def counter(key, measure=None):
        def count(args, kwargs, result):
            inc = {f"{key}.calls": 1}
            if measure is not None:
                inc.update(measure(args, kwargs, result))
            return inc
        return count

    # core
    tracer.patch_method(core.PlaneQuadrature, "nodes_1d", "core.plane_nodes",
                        counter("core.plane_nodes"))
    tracer.patch_function(core, "fd_derivative_oracle", "core.fd", counter("core.fd"))
    tracer.patch_function(
        core, "fd_field", None,
        wrap=lambda orig: (lambda *a, **k: tracer.traced(
            orig(*a, **k), "core.fd", counter("core.fd"))))
    tracer.patch_function(core, "sphere_quadrature", "core.sphere_quadrature")

    # moses
    tracer.patch_function(moses, "moses_frame", "moses.frame",
                          lambda a, k, r: {"moses.frame.directions": _n_points(a[0])})

    # fields: every evaluation of a catalog field object
    field_count = counter("fields.eval", lambda a, k, r: {"fields.eval.points": _n_points(a[1])})
    tracer.patch_method(fields.SampledField, "__call__", "fields.eval", field_count)
    tracer.patch_method(fields.ScalarField, "__call__", "fields.eval", field_count)
    tracer.patch_function(fields, "eval_mode_field", "fields.eval", field_count)

    # radon
    tracer.patch_function(radon, "radon_forward_grid", "radon.forward")
    tracer.patch_function(radon, "radon_forward_numeric", "radon.forward",
                          lambda a, k, r: {"radon.forward.planes": 1})
    tracer.patch_function(radon, "grid_to_csv", "radon.grid_csv",
                          lambda a, k, r: {"radon.grid_csv.bytes": len(r)})
    tracer.patch_function(radon, "grid_from_csv", "radon.grid_csv",
                          lambda a, k, r: {"radon.grid_csv.bytes": len(a[0])})
    tracer.patch_function(radon, "inverse_radon", "radon.inverse",
                          lambda a, k, r: {"radon.inverse.points": _n_points(a[1])})
    tracer.patch_function(radon, "hemisphere_inverse", "radon.inverse",
                          lambda a, k, r: {"radon.inverse.points": _n_points(a[2])})
    tracer.patch_function(radon, "adjoint_radon", "radon.inverse",
                          lambda a, k, r: {"radon.inverse.points": _n_points(a[1])})

    def atoms_of(a, k, r):
        prof = a[0]
        return {"radon.atom_ops.atoms": len(prof.atoms)} if hasattr(prof, "atoms") else {}

    def atoms_made(a, k, r):
        return {"radon.atom_ops.atoms": len(r.atoms)}

    profile_kind = lambda a, k: ("radon.atom_ops" if isinstance(a[0], radon.AnalyticProfile)
                                 else "radon.grid_ops")
    tracer.patch_function(radon, "gamma_apply", profile_kind, atoms_of)
    for attr in ("antipodal_profile", "transform_radon_linear", "spherical_curl_transform",
                 "gamma_cross_eigendefect", "radon_of_hemisphere_inverse"):
        tracer.patch_function(radon, attr, "radon.atom_ops", atoms_of)
    for attr in ("lundquist_radon_profile", "radon_mode_analytic", "scalar_wave_profile"):
        tracer.patch_function(radon, attr, "radon.atom_ops", atoms_made)
    tracer.patch_method(radon.AnalyticProfile, "transverse_defect", "radon.atom_ops", atoms_of)
    tracer.patch_method(radon.AnalyticProfile, "parity_defect", "radon.parity")
    tracer.patch_function(radon, "profile_to_json", "radon.json",
                          lambda a, k, r: {"radon.json.bytes": len(r)})
    tracer.patch_function(radon, "profile_from_json", "radon.json",
                          lambda a, k, r: {"radon.json.bytes": len(a[0])})

    # biotsavart
    tracer.patch_function(biotsavart, "bs_integral", lambda a, k: f"biotsavart.bs.{a[2].kind}",
                          lambda a, k, r: {f"biotsavart.bs.{a[2].kind}.points": _n_points(a[1])})
    tracer.patch_function(biotsavart, "riesz_potential", "biotsavart.riesz",
                          lambda a, k, r: {"biotsavart.riesz.points": _n_points(a[1])})
    tracer.patch_function(biotsavart, "ampere_fluxes", "biotsavart.ampere")

    # rbs
    tracer.patch_function(rbs, "rbs_apply", "rbs.apply")
    tracer.patch_function(rbs, "rbs_eigendefect", "rbs.apply")
    tracer.patch_function(rbs, "fourier_slice_pair", "rbs.fourier_slice")
    tracer.patch_function(rbs, "fourier_slice_check", "rbs.fourier_slice")

    # cktransform
    tracer.patch_function(cktransform, "ck_transform_solution", "cktransform.solution")
    tracer.patch_function(cktransform, "reconstruct_physical", "cktransform.reconstruct")

    # verify: one span per record, tagged with the record name
    def record_wrapper(rec_name, fn):
        def run_record():
            with tracer.span("verify.record", rec_name):
                return fn()
        return run_record

    for i, entry in enumerate(list(verify._CHECKS)):
        rec_name, desc, tol, fn = entry
        verify._CHECKS[i] = (rec_name, desc, tol, record_wrapper(rec_name, fn))
        tracer._undo.append(lambda i=i, e=entry: verify._CHECKS.__setitem__(i, e))
    tracer.patch_function(verify, "run_verify", "verify.run")

    # cli: the command as a whole, and bytes written by the atomic writer
    tracer.patch_function(cli, "main", "cli.main")
    tracer.patch_function(cli, "_atomic_write", "cli.write",
                          lambda a, k, r: {"cli.bytes_written": len(a[1].encode())})

