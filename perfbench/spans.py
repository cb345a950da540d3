"""Outside-in span tracing of the qflow modules.

`Tracer.install` wraps, from outside the package, every public function and
method of each qflow module (plus the few private callables listed in
`EXTRA` that carry layer work) and rebinds each wrapped function under every
name a qflow module looks it up by, so `from .x import f` imports are traced
too.  Every call records one span (name, start, end, parent) in memory; the
transform methods of `Grid` also record their planes (the product of the
leading axes) and computed bytes.  A second plane count is taken at the 2-D
transform functions of `scipy.fft` and `numpy.fft` themselves, so work done
outside `Grid` shows as `spectral.outside_grid_planes`.

`Tracer.summary` derives inclusive time, self time and call counts per span
name, and the per-layer metrics described in perfbench/README.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

MODULES = ("spectral", "qtensor", "dyadic", "timestepping", "checks", "config",
           "snapshots", "cli")

#: Private callables wrapped besides the public ones.
EXTRA = {"Grid.__post_init__", "DyadicPartition.__post_init__", "SymDecompContext.__init__",
         "_twin_probes"}

#: Grid transform methods and the plane kind each one transforms.
TRANSFORMS = {"fft": "c2c", "ifft": "c2c", "rfft": "r2c", "irfft": "c2r"}

#: 2-D/N-D transform functions counted at the library level.
LIBRARY_FFTS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

STEP = "timestepping.Stepper.step"
PROBES = "timestepping.standard_probes"


def _planes(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) >= 2 else 0


class Tracer:
    """Span recorder; `install` patches qflow, `restore` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.transfers: dict[int, tuple[str, int, int]] = {}  # span -> (kind, planes, bytes)
        self.library_planes = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str | None = None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        transfers = self.transfers
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if kind is not None:
                transfers[idx] = (kind, _planes(args[1]), int(args[1].nbytes + out.nbytes))
            return out

        return traced

    def _count_library(self, fn):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            self.library_planes += _planes(x)
            return fn(x, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the qflow modules and the library transforms."""
        import numpy.fft
        import scipy.fft

        package = importlib.import_module("qflow")
        mods = {m: importlib.import_module(f"qflow.{m}") for m in MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in EXTRA):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        qual = f"{obj.__name__}.{mattr}"
                        if inspect.isfunction(meth) and (not mattr.startswith("_") or qual in EXTRA):
                            kind = TRANSFORMS.get(mattr) if obj.__name__ == "Grid" else None
                            self._patch(obj, mattr, self._wrap(meth, f"{short}.{qual}", kind))
        # rebind every module-level name that refers to a wrapped function
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for lib in (scipy.fft, numpy.fft):
            for fname in LIBRARY_FFTS:
                self._patch(lib, fname, self._count_library(getattr(lib, fname)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- derived numbers -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Spans as [name, start_s, end_s, parent] rows, times from the first span."""
        t0 = self.start[0] if self.start else 0.0
        rows = [[nm, round(s - t0, 9), round(e - t0, 9), p]
                for nm, s, e, p in zip(self.names, self.start, self.end, self.parent)]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": rows}, separators=(",", ":")))

    def _under(self, scope: set[str]) -> np.ndarray:
        """Per span: whether some ancestor's name is in scope."""
        flag = np.zeros(len(self.names), dtype=bool)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flag[i] = flag[p] or self.names[p] in scope
        return flag

    def summary(self) -> dict:
        start, end = np.array(self.start), np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        per_name: dict[str, dict[str, float]] = {}
        for i, nm in enumerate(self.names):
            rec = per_name.setdefault(nm, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += float(self_t[i])
            p = self.parent[i]
            while p >= 0 and self.names[p] != nm:
                p = self.parent[p]
            if p < 0:  # outermost span of this name
                rec["inclusive_s"] += float(dur[i])

        def self_s(*group: str) -> float:
            return float(sum(per_name.get(g, {}).get("self_s", 0.0) for g in group))

        def incl(*group: str) -> float:
            return self.inclusive(set(group))

        def calls(*group: str) -> int:
            return int(sum(per_name.get(g, {}).get("calls", 0) for g in group))

        in_step = self._under({STEP})
        in_probe = self._under({PROBES})
        totals = {"c2c": 0, "r2c": 0, "c2r": 0}
        step = {"c2c": 0, "r2c": 0, "c2r": 0, "calls": 0, "bytes": 0}
        probe_planes = 0
        for idx, (kind, planes, nbytes) in self.transfers.items():
            totals[kind] += planes
            if in_step[idx]:
                step[kind] += planes
                step["calls"] += 1
                step["bytes"] += nbytes
            if in_probe[idx]:
                probe_planes += planes
        steps = calls(STEP)
        probe_calls = calls(PROBES)
        rhs = ("qtensor.tensor_rhs_nonstiff", "qtensor.velocity_rhs_nonstiff",
               "qtensor.tensor_rhs", "qtensor.velocity_rhs")
        rhs_in_step = sum(1 for i, nm in enumerate(self.names) if nm in rhs and in_step[i])
        runs = ("timestepping.run", "timestepping.twin_run")
        run_scope = self._under(set(runs))
        step_in_runs = float(sum(dur[i] for i, nm in enumerate(self.names)
                                 if nm == STEP and run_scope[i]))
        probes_in_runs = float(sum(dur[i] for i, nm in enumerate(self.names)
                                   if nm == PROBES and run_scope[i]))

        def per(count: float, base: int) -> float:
            return count / base if base else 0.0

        grid = "spectral.Grid."
        layer = {
            "spectral.r2c_planes_per_step": per(step["r2c"], steps),
            "spectral.c2r_planes_per_step": per(step["c2r"], steps),
            "spectral.transform_calls_per_step": per(step["calls"], steps),
            "spectral.transform_mb_per_step": per(step["bytes"] / 1e6, steps),
            "spectral.transform_s": self_s(*(grid + t for t in TRANSFORMS)),
            "spectral.leray_s": self_s(grid + "leray_hat", grid + "leray_hat_r", grid + "leray"),
            "spectral.c2c_planes": totals["c2c"],
            "spectral.r2c_planes": totals["r2c"],
            "spectral.c2r_planes": totals["c2r"],
            "spectral.library_planes": self.library_planes,
            "spectral.outside_grid_planes": self.library_planes - sum(totals.values()),
            "spectral.random_fields_s": incl("spectral.random_scalar", "spectral.random_velocity"),
            "qtensor.dense_s": self_s("qtensor.q_to_mat", "qtensor.mat_to_q", "qtensor.q_square_mat",
                                      "qtensor.velocity_gradient", "qtensor.vorticity_mat"),
            "qtensor.advect_s": self_s("qtensor.advect"),
            "qtensor.corotation_s": self_s("qtensor.corotation"),
            "qtensor.bulk_force_s": self_s("qtensor.bulk_force"),
            "qtensor.stress_div_s": self_s("qtensor.elastic_stress_div", "qtensor.stress_tensor"),
            "qtensor.rhs_s": self_s(*rhs),
            "qtensor.rhs_calls_per_step": per(rhs_in_step, steps),
            "timestepping.steps": steps,
            "timestepping.step_s": incl(STEP),
            "timestepping.step_self_s": self_s(STEP),
            "timestepping.probes_s": incl(PROBES),
            "timestepping.probe_planes_per_call": per(probe_planes, probe_calls),
            "timestepping.record_s": incl(*runs) - step_in_runs - probes_in_runs,
            "dyadic.tables_s": incl("dyadic.DyadicPartition.__post_init__",
                                    "dyadic.DyadicPartition.sobolev_weight",
                                    "dyadic.DyadicPartition.sobolev_weight_r",
                                    "dyadic.DyadicPartition.lowpass_multiplier"),
            "dyadic.bony_s": self_s("dyadic.DyadicPartition.bony"),
            "dyadic.sym_decomp_s": self_s("dyadic.DyadicPartition.sym_decomp",
                                          "dyadic.SymDecompContext.__init__",
                                          "dyadic.SymDecompContext.terms",
                                          "dyadic.SymDecompContext.block_product"),
            "dyadic.besov_s": self_s(*(f"dyadic.DyadicPartition.{m}" for m in (
                "besov_norm", "hs_inner", "hs_norm2", "hs_norm2_hat", "sobolev_inner",
                "block", "blocks", "lowpass")), "dyadic.neg_index_equiv"),
            "dyadic.commutator_s": self_s("dyadic.commutator"),
            "dyadic.product_sample_s": self_s("dyadic.product_estimate_sample"),
            "checks.partition_s": incl("checks.partition_unity_check"),
            "checks.bony_s": incl("checks.bony_check"),
            "checks.sym_decomp_s": incl("checks.sym_decomp_check"),
            "checks.cancellation_s": incl("checks.cancellation_ensemble"),
            "checks.transport_s": incl("checks.transport_cancellation_check"),
            "checks.commutator_s": incl("checks.commutator_estimate_check"),
            "checks.neg_index_s": incl("checks.neg_index_check"),
            "checks.product_law_s": incl("checks.product_law_check"),
            "checks.linf_interp_s": incl("checks.linf_interp_check"),
            "checks.force_estimate_s": incl("checks.force_estimate_check"),
            "checks.twin_s": incl("checks.uniqueness_check", "checks.difference_regularity_check"),
            "snapshots.write_s": incl("snapshots.write_snapshot"),
            "snapshots.read_s": incl("snapshots.read_snapshot"),
            "snapshots.series_write_s": incl("snapshots.emit_series"),
            "config.parse_s": incl("config.parse_config"),
            "config.init_state_s": incl("config.build_initial_state"),
            "cli.command_s": incl("cli.main"),
        }
        return {"layer": layer, "spans": len(self.names), "by_name": per_name}

    def inclusive(self, group: set[str]) -> float:
        """Summed duration of spans in group that have no ancestor in group."""
        nested = self._under(group)
        return float(sum(e - s for nm, s, e, inner in zip(self.names, self.start, self.end, nested)
                         if nm in group and not inner))
