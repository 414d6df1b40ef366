"""Per-layer spans for the traced benchmark run, kept in memory.

`Tracer.install()` wraps the public functions of every stochex layer at each
name through which the package or the benchmark reaches them (a module
attribute, a package re-export, a class attribute), so nested calls nest:
`classify` -> `abs_extreme_dist` -> `UnivariateDist.build` gives three spans,
each charged only its own time.  `uninstall()` puts the originals back; the
untraced run never calls `install()`.

Spans are aggregated per function as they close (calls, self time), because
the hot leaves -- `ExactJointDist.pmf` in the symmetry scans, `phi` in the
folded-normal cdf -- run millions of times per pass.  Work counters that
would count the same work twice when the layer calls itself are taken at
layer boundaries only: `ExactJointDist.transform` -> `ExactJointDist.build`
counts its atoms once, and `check` -> `check_re_kl` is one check.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from importlib import import_module

# layer -> (module, public functions and methods wrapped in it).
LAYERS = {
    "dist": ("stochex.dist", (
        "ExactJointDist.build", "ExactJointDist.pmf", "ExactJointDist.support",
        "ExactJointDist.transform", "ExactJointDist.equal", "ExactJointDist.mix",
        "ExactJointDist.marginal", "ExactJointDist.to_jsonable", "ExactJointDist.to_json",
        "ExactJointDist.from_jsonable", "ExactJointDist.from_json",
        "UnivariateDist.build", "UnivariateDist.cdf", "UnivariateDist.values",
        "UnivariateDist.to_jsonable",
    )),
    "gallery": ("stochex.gallery", (
        "gallery", "list_ids", "axes_dist", "sci_counterexample", "remark_asym_dist",
        "draws_dist", "product_dist", "symmetrize_univariate", "iid_sym_dist",
        "alt_signs_dist", "indep_sym_step_dist", "GalleryEntry.verify",
    )),
    "symmetry": ("stochex.symmetry", (
        "check_map_invariance", "check_re_kl", "check_re_n", "check_ure_lre",
        "check_basic", "check_sub_super_kl", "check",
    )),
    "extremes": ("stochex.extremes", (
        "abs_extreme_dist", "region_probs", "verify_region_identities", "cdf_table_csv",
    )),
    "stochorder": ("stochex.stochorder", (
        "st_compare", "classify", "strictness_witness", "strict_chain_preconditions",
    )),
    "contlab.normal": ("stochex.contlab.normal", ("phi", "phi2", "verify_identity_11")),
    "contlab.elliptical": ("stochex.contlab.elliptical", (
        "EllipticalModel.density", "bivariate_elliptical", "intraclass_model",
        "density_symmetry_grid", "build_gaussian_seq", "mlr_scale_density",
    )),
    "contlab.montecarlo": ("stochex.contlab.montecarlo", (
        "sample_gaussian", "sample_elliptical", "ks_distance", "folded_normal_cdf",
        "mc_dominance", "verify_mlr_example", "dkw_band",
    )),
    "cli": ("stochex.cli", ("main", "build_parser")),
}

# Counters derived from the call count of one function.
CALL_COUNTERS = {
    "dist.pmf_calls": "dist:ExactJointDist.pmf",
    "contlab.elliptical.density_calls": "contlab.elliptical:EllipticalModel.density",
}

# Counters the hooks below add to.
COUNTERS = (
    "dist.atoms_in", "dist.atoms_out", "extremes.atoms_in", "stochorder.grid_points",
    "symmetry.atoms_in", "symmetry.checks", "symmetry.failing",
    "contlab.montecarlo.samples", "contlab.elliptical.grid_points",
)


def _counting(items, box):
    for item in items:
        box[0] += 1
        yield item


def _build_hook(args, kwargs):
    # build(cls, [dim,] raw_atoms): count the raw atoms as build consumes them.
    box = [0]
    args = (*args[:-1], _counting(args[-1], box))
    return args, lambda d: (("dist.atoms_in", box[0]), ("dist.atoms_out", len(d.atoms)))


def _verdict_hook(args, kwargs):
    def after(result):
        verdict = result[0] if isinstance(result, tuple) else result
        return (("symmetry.atoms_in", len(args[0].atoms)), ("symmetry.checks", 1),
                ("symmetry.failing", 0 if verdict.holds else 1))
    return args, after


def _samples_hook(args, kwargs):
    cfg = args[-1] if args else kwargs["cfg"]
    return args, lambda r: (("contlab.montecarlo.samples", cfg.sample_count),)


def _st_compare_hook(args, kwargs):
    u, v = args
    points = len(set(u.values()) | set(v.values()))
    return args, lambda r: (("stochorder.grid_points", points),)


HOOKS = {
    "dist:ExactJointDist.build": _build_hook,
    "dist:UnivariateDist.build": _build_hook,
    "extremes:abs_extreme_dist":
        lambda a, k: (a, lambda r: (("extremes.atoms_in", len(a[0].atoms)),)),
    "stochorder:st_compare": _st_compare_hook,
    "contlab.elliptical:density_symmetry_grid":
        lambda a, k: (a, lambda r: (
            ("contlab.elliptical.grid_points", math.prod(len(ax) for ax in a[2])),)),
    "contlab.montecarlo:sample_gaussian": _samples_hook,
    "contlab.montecarlo:sample_elliptical": _samples_hook,
    "contlab.montecarlo:verify_mlr_example": _samples_hook,
}
HOOKS.update({
    f"symmetry:{name}": _verdict_hook for name in LAYERS["symmetry"][1]
})
# Hooks whose work is never nested in the same layer's counted work.
EVERY_CALL = {
    "stochorder:st_compare", "extremes:abs_extreme_dist",
    "contlab.elliptical:density_symmetry_grid",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # Open spans: [time spent in child spans, layer].
        self._stack = [[0.0, None]]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn):
        stack, perf = self._stack, time.perf_counter
        calls, self_s, counters = self.calls, self.self_s, self.counters
        hook = HOOKS.get(key)
        every_call = key in EVERY_CALL

        def span(*args, **kwargs):
            parent = stack[-1]
            after = None
            if hook is not None and (every_call or parent[1] != layer):
                args, after = hook(args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[0]
                parent[0] += dt
            if after is not None:
                for name, inc in after(result):
                    counters[name] += inc
            return result

        return span

    def install(self) -> None:
        if self._patches:
            return
        for layer, (module_name, names) in LAYERS.items():
            module = import_module(module_name)
            for name in names:
                key = f"{layer}:{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer, key, raw.__func__))
                    else:
                        new = self._wrap(layer, key, raw)
                    self._patch(cls, attr, new)
                    continue
                fn = getattr(module, name)
                wrapped = self._wrap(layer, key, fn)
                # Every importer of the function holds its own reference.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "stochex" or mod_name.startswith("stochex."):
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ------------------------------------------------------------

    def merge(self, data: dict) -> None:
        for key, n in data["calls"].items():
            self.calls[key] += n
        for key, s in data["self_s"].items():
            self.self_s[key] += s
        for key, n in data["counters"].items():
            self.counters[key] += n

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds, and the work counters."""
        out = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(":")[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{layer}.self_s"] = sum(self.self_s[k] for k in keys)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        for name, key in CALL_COUNTERS.items():
            out[name] = self.calls.get(key, 0)
        return out
