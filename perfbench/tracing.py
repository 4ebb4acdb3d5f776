"""Spans around the public functions of each spinlens module (traced runs only).

Each listed function is replaced, for the length of a traced pass, by a
wrapper that records a span: name, start, end, parent span and task index.
``scenarios``, ``disorder`` and others import functions by name, so the
wrapper is bound in every ``spinlens.*`` namespace that holds the original.
Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus its children's durations, minus
the time the tracer spent probing those children (norms, sizes), so the self
times of all spans plus the probe time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute); "Class.method" wraps the method on the class.
TRACED = (
    ("propagator", "expimv"), ("propagator", "spectral_bounds"),
    ("wavepacket", "evolve"), ("wavepacket", "gaussian_width"),
    ("lens", "optimize_lens"),
    ("manybody", "enumerate_basis"), ("manybody", "build_mb_hamiltonian"),
    ("manybody", "evolve_mb"), ("manybody", "density_profile"),
    ("manybody", "pair_distance_distribution"),
    ("lattice", "build_couplings"), ("lattice", "punch_holes"),
    ("lattice", "displace_sites"), ("lattice", "HamiltonianTerms.matrix"),
    ("lattice", "HamiltonianTerms.bounds"),
    ("disorder", "run_protocol"), ("disorder", "run_ensemble"),
    ("disorder", "plane_wave_broadening"),
    ("scenarios", "run_scenario"),
    ("io_utils", "write_csv"), ("io_utils", "write_json"),
    ("cli", "main"),
)

# (name, unit) of every per-layer metric, in print order. BENCHMARK.json
# lists the same names.
PER_LAYER = (
    ("propagator.expimv.calls", "count"),
    ("propagator.expimv.self_s", "s"),
    ("propagator.expimv.us_per_call", "us"),
    ("propagator.phase_rad", "rad"),
    ("propagator.us_per_rad", "us/rad"),
    ("propagator.state_dim_mean", "count"),
    ("propagator.nnz_mean", "count"),
    ("propagator.bytes_per_matvec_computed", "B"),
    ("propagator.norm_drift_max", "1"),
    ("propagator.norm_drift_over_promise", "1"),
    ("propagator.spectral_bounds.calls", "count"),
    ("propagator.spectral_bounds.self_s", "s"),
    ("wavepacket.evolve.self_s", "s"),
    ("wavepacket.gaussian_width.calls", "count"),
    ("wavepacket.gaussian_width.self_s", "s"),
    ("lens.optimize_lens.calls", "count"),
    ("lens.optimize_lens.self_s", "s"),
    ("lens.designs", "count"),
    ("lens.s_per_design", "s"),
    ("lens.evolves_per_design", "1"),
    ("lens.boundary_frac", "1"),
    ("manybody.enumerate_basis.self_s", "s"),
    ("manybody.build_mb_hamiltonian.self_s", "s"),
    ("manybody.sector_dim", "count"),
    ("manybody.sector_nnz", "count"),
    ("manybody.evolve_mb.self_s", "s"),
    ("manybody.observables.self_s", "s"),
    ("lattice.build_couplings.calls", "count"),
    ("lattice.build_couplings.self_s", "s"),
    ("lattice.perturb.self_s", "s"),
    ("lattice.hamiltonian.self_s", "s"),
    ("disorder.realizations", "count"),
    ("disorder.run_protocol.self_s", "s"),
    ("disorder.run_ensemble.self_s", "s"),
    ("disorder.s_per_realization", "s"),
    ("disorder.plane_wave_broadening.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("scenarios.run_scenario.self_s", "s"),
    ("io_utils.write_csv.self_s", "s"),
    ("io_utils.write_json.self_s", "s"),
    ("io_utils.bytes_written", "B"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "1"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
)


def matvec_bytes(dim: int, nnz: int) -> int:
    """Bytes one CSR matvec moves, computed from array sizes (not measured).

    A float64 value and an int32 column index per nonzero, an int32 row
    pointer per row, and a complex128 input read and output write per row.
    """
    return 12 * nnz + 4 * (dim + 1) + 32 * dim


def _expimv_probe(orig_bounds):
    import numpy as np

    def probe(args, kwargs, out):
        h, psi, t = args[:3]
        tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-10)
        bounds = kwargs.get("bounds", args[4] if len(args) > 4 else None)
        lo, hi = bounds if bounds is not None else orig_bounds(h)
        drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(psi)))
        return {"dim": h.shape[0], "nnz": h.nnz, "phase": float(0.5 * (hi - lo) * abs(t)),
                "drift": drift, "tol": tol}
    return probe


def _optimize_probe(args, kwargs, result):
    return {"designs": len(result.scan), "boundary": bool(result.boundary)}


def _sector_probe(args, kwargs, sector):
    return {"dim": sector.matrix.shape[0], "nnz": sector.matrix.nnz}


def _ensemble_probe(args, kwargs, stats):
    job = args[0] if args else kwargs["job"]
    return {"realizations": job.realizations}


def _file_probe(args, kwargs, path):
    return {"bytes": Path(path).stat().st_size}


class Tracer:
    """Records spans while installed; ``task`` tags the spans of one task."""

    def __init__(self):
        # span: [name, start, end, parent index, task, probe time of children, info]
        self.spans: list = []
        self.task = None
        self.probe_s = 0.0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.task, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[6] = probe(args, kwargs, result)
                spent = clock() - span[2]
                self.probe_s += spent
                if parent >= 0:
                    spans[parent][5] += spent
            return result

        return traced

    def install(self):
        import spinlens.cli  # noqa: F401  (imports every traced module)

        orig_bounds = sys.modules["spinlens.propagator"].spectral_bounds
        probes = {
            "propagator.expimv": _expimv_probe(orig_bounds),
            "lens.optimize_lens": _optimize_probe,
            "manybody.build_mb_hamiltonian": _sector_probe,
            "disorder.run_ensemble": _ensemble_probe,
            "io_utils.write_csv": _file_probe,
            "io_utils.write_json": _file_probe,
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "spinlens" or n.startswith("spinlens.")]
        for mod, attr in TRACED:
            module = sys.modules[f"spinlens.{mod}"]
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, probes.get(name)))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, probes.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "task": s[4],
                                     "info": s[6]}) + "\n")

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer values (without process.* and trace.overhead_s)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: dict = {}
        busy: dict = {}
        own: dict = {}
        in_opt = [False] * len(spans)
        evolves_in_opt = 0
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (s[2] - s[1])
            own[name] = own.get(name, 0.0) + (s[2] - s[1] - child[i] - s[5])
            # parents precede their children in the list
            in_opt[i] = name == "lens.optimize_lens" or (s[3] >= 0 and in_opt[s[3]])
            if name == "wavepacket.evolve" and in_opt[i]:
                evolves_in_opt += 1

        def info(name):
            return [s[6] for s in spans if s[0] == name and s[6] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        prop = info("propagator.expimv")
        opt = info("lens.optimize_lens")
        sectors = info("manybody.build_mb_hamiltonian")
        designs = sum(o["designs"] for o in opt)
        realizations = sum(e["realizations"] for e in info("disorder.run_ensemble"))
        phase = sum(p["phase"] for p in prop)
        self_sum = sum(own.values())
        m = {
            "propagator.expimv.calls": calls.get("propagator.expimv", 0),
            "propagator.expimv.self_s": own.get("propagator.expimv", 0.0),
            "propagator.expimv.us_per_call": 1e6 * ratio(
                own.get("propagator.expimv", 0.0), calls.get("propagator.expimv", 0)),
            "propagator.phase_rad": phase,
            "propagator.us_per_rad": 1e6 * ratio(own.get("propagator.expimv", 0.0), phase),
            "propagator.state_dim_mean": ratio(sum(p["dim"] for p in prop), len(prop)),
            "propagator.nnz_mean": ratio(sum(p["nnz"] for p in prop), len(prop)),
            "propagator.bytes_per_matvec_computed": ratio(
                sum(matvec_bytes(p["dim"], p["nnz"]) for p in prop), len(prop)),
            "propagator.norm_drift_max": max((p["drift"] for p in prop), default=0.0),
            "propagator.norm_drift_over_promise": max(
                (p["drift"] / (10.0 * p["tol"]) for p in prop), default=0.0),
            "lens.designs": designs,
            "lens.s_per_design": ratio(busy.get("lens.optimize_lens", 0.0), designs),
            "lens.evolves_per_design": ratio(evolves_in_opt, designs),
            "lens.boundary_frac": ratio(sum(o["boundary"] for o in opt), len(opt)),
            "manybody.sector_dim": max((s["dim"] for s in sectors), default=0),
            "manybody.sector_nnz": max((s["nnz"] for s in sectors), default=0),
            "manybody.observables.self_s": own.get("manybody.density_profile", 0.0)
            + own.get("manybody.pair_distance_distribution", 0.0),
            "lattice.perturb.self_s": own.get("lattice.punch_holes", 0.0)
            + own.get("lattice.displace_sites", 0.0),
            "lattice.hamiltonian.self_s": own.get("lattice.HamiltonianTerms.matrix", 0.0)
            + own.get("lattice.HamiltonianTerms.bounds", 0.0),
            "disorder.realizations": realizations,
            "disorder.s_per_realization": ratio(busy.get("disorder.run_ensemble", 0.0),
                                                realizations),
            "io_utils.bytes_written": sum(f["bytes"] for name in
                                          ("io_utils.write_csv", "io_utils.write_json")
                                          for f in info(name)),
            "trace.wall_s": traced_wall_s,
            "trace.self_sum_s": self_sum,
            "trace.probe_s": self.probe_s,
            "trace.unattributed_s": traced_wall_s - self_sum - self.probe_s,
            "trace.spans": len(spans),
        }
        for name, unit in PER_LAYER:
            if name in m or name.startswith(("process.", "trace.")):
                continue
            base, _, stat = name.rpartition(".")
            m[name] = calls.get(base, 0) if stat == "calls" else own.get(base, 0.0)
        return m
