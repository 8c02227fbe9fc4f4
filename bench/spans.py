"""Spans and counts for the benchmark's traced runs, recorded from outside glekit.

``install`` wraps every public module-level function of each glekit layer
module, plus the few methods the per-layer metrics need, and rebinds every
reference to them, including names one module imported from another.  Each
call becomes a span ``[name, start_ns, end_ns, parent_index, attrs]`` kept in
memory; ``dump`` writes them out when the run ends.  Nothing inside the
package changes, and the traced process runs one thread, so a single stack
gives each span its parent.

``aggregate`` turns one process's spans into additive sums, and ``per_layer``
turns sums over the traced workloads into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("config", "model", "matrixkit", "quadratic", "particles", "stationary", "thermo",
          "limits", "cli")

# methods (not module-level functions) that carry per-layer metrics
METHODS = (
    ("particles", "_Stepper", "step"),
    ("model", "ValidatedModel", "grad_potential"),
    ("quadratic", "GaussianLaw", "__post_init__"),
)

STEP = "particles._Stepper.step"
FORCE = "model.ValidatedModel.grad_potential"
RNG = "particles.rng"
WRITERS = ("cli.write_table", "cli.write_summary", "cli.write_manifest")
FUNCTIONALS = ("thermo.hamiltonian", "thermo.dissipation", "thermo.heat_flux")


class Tracer:
    """Records a span per call of each function it wraps, with its parent span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, post=None):
        """Return ``fn`` recording a span per call; ``post(args, kwargs, result)`` gives attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[4] = post(args, kwargs, result)
            return result

        return traced


def dump(records: list[list], path: Path) -> None:
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                                "spans": records}) + "\n")


class _TimedRng:
    """Stands in for an ensemble's numpy Generator and times each normal draw."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self.standard_normal = tracer.wrap(
            RNG, rng.standard_normal, lambda a, k, r: {"draws": int(r.size)})

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _post_hooks(tracer: Tracer) -> dict:
    def timed_rng(args, kwargs, ens):
        ens.rng = _TimedRng(ens.rng, tracer)

    def file_size(args, kwargs, path):
        return {"bytes": Path(path).stat().st_size}

    hooks = {
        STEP: lambda a, k, r: {"kind": a[0].kind.value, "n": int(a[1].N)},
        "particles.init_ensemble": timed_rng,
        "thermo.evolve_coupled": lambda a, k, r: {"steps": int(round(a[3] / a[2]))},
    }
    hooks.update({name: file_size for name in WRITERS})
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module and the methods in METHODS."""
    modules = {layer: importlib.import_module(f"glekit.{layer}") for layer in LAYERS}
    hooks = _post_hooks(tracer)
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "glekit" and not mod_name.startswith("glekit."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hooks.get(name)))


def aggregate(spans: list[list]) -> dict[str, float]:
    """Additive sums over one process's spans: calls, inclusive and self ns per name, and more."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    sums: Counter = Counter()
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        sums[f"calls:{name}"] += 1
        sums[f"incl_ns:{name}"] += dur
        sums[f"self_ns:{name}"] += dur - child_ns[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == STEP:
            kind = attrs["kind"]
            sums[f"steps:{kind}"] += 1
            sums[f"particle_steps:{kind}"] += attrs["n"]
            sums[f"step_ns:{kind}"] += dur
            if parent_name == "limits.run_study":
                sums["run_study_steps"] += 1
        elif name == FORCE and parent_name == STEP:
            sums["force_in_step_ns"] += dur
            if spans[parent][4]["kind"] != "overdamped":
                sums["force_calls_kinetic"] += 1
        elif name == RNG:
            sums["rng_draws"] += attrs["draws"]
        elif name == "thermo.evolve_coupled":
            sums["evolve_steps"] += attrs["steps"]
        elif name in WRITERS:
            sums["bytes_written"] += attrs["bytes"]
    return dict(sums)


KINDS = ("overdamped", "underdamped", "generalized")


def per_layer(sums: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics from sums over the traced workloads (value, unit)."""
    def get(key):
        return sums.get(key, 0)

    def per_call(name, scale):
        return get(f"incl_ns:{name}") / max(get(f"calls:{name}"), 1) / scale

    m: dict[str, tuple[float, str]] = {}
    for kind in KINDS:
        m[f"particles.step_ns_per_particle.{kind}"] = (
            get(f"step_ns:{kind}") / max(get(f"particle_steps:{kind}"), 1), "ns")
    kinetic_steps = get("steps:underdamped") + get("steps:generalized")
    m.update({
        "particles.steps": (sum(get(f"steps:{k}") for k in KINDS), "count"),
        "particles.particle_steps": (sum(get(f"particle_steps:{k}") for k in KINDS), "count"),
        "particles.step_s": (get(f"self_ns:{STEP}") / 1e9, "s"),
        "particles.force_calls_per_step": (get("force_calls_kinetic") / max(kinetic_steps, 1),
                                           "count"),
        "particles.force_s": (get("force_in_step_ns") / 1e9, "s"),
        "particles.rng_draws": (get("rng_draws"), "count"),
        "particles.rng_s": (get(f"incl_ns:{RNG}") / 1e9, "s"),
        "particles.stepper_build_us": (per_call("particles.make_stepper", 1e3), "us"),
        "particles.simulate_self_s": (get("self_ns:particles.simulate") / 1e9, "s"),
        "limits.steps_total": (get("run_study_steps"), "count"),
        "limits.run_study_self_s": (get("self_ns:limits.run_study") / 1e9, "s"),
        "quadratic.meanfield_green_us": (per_call("quadratic.meanfield_green", 1e3), "us"),
        "quadratic.gaussian_law_builds": (get("calls:quadratic.GaussianLaw.__post_init__"),
                                          "count"),
        "quadratic.gaussian_law_us": (per_call("quadratic.GaussianLaw.__post_init__", 1e3),
                                      "us"),
        "quadratic.spectrum_report_ms": (per_call("quadratic.spectrum_report", 1e6), "ms"),
        "matrixkit.expm_calls": (get("calls:matrixkit.expm"), "count"),
        "matrixkit.expm_us": (per_call("matrixkit.expm", 1e3), "us"),
        "matrixkit.gram_integral_calls": (get("calls:matrixkit.gram_integral"), "count"),
        "matrixkit.gram_integral_us": (per_call("matrixkit.gram_integral", 1e3), "us"),
        "stationary.R_calls": (get("calls:stationary.self_consistency_map"), "count"),
        "stationary.R_us": (per_call("stationary.self_consistency_map", 1e3), "us"),
        "stationary.window_calls": (get("calls:stationary.default_window"), "count"),
        "stationary.window_s": (get("incl_ns:stationary.default_window") / 1e9, "s"),
        "stationary.fixed_points_calls": (get("calls:stationary.fixed_points"), "count"),
        "stationary.fixed_points_ms": (per_call("stationary.fixed_points", 1e6), "ms"),
        "stationary.map_derivative_calls": (get("calls:stationary.map_derivative"), "count"),
        "stationary.critical_beta_ms": (per_call("stationary.critical_beta", 1e6), "ms"),
        "thermo.evolve_coupled_s": (get("incl_ns:thermo.evolve_coupled") / 1e9, "s"),
        "thermo.us_per_law_step": (
            get("incl_ns:thermo.evolve_coupled") / max(get("evolve_steps"), 1) / 1e3, "us"),
        "thermo.functional_calls_per_step": (
            sum(get(f"calls:{n}") for n in FUNCTIONALS) / max(get("evolve_steps"), 1), "count"),
        "config.load_ms": (per_call("config.load_config", 1e6), "ms"),
        "cli.write_s": (sum(get(f"incl_ns:{n}") for n in WRITERS) / 1e9, "s"),
        "cli.bytes_written": (get("bytes_written"), "bytes"),
    })
    return m
