"""The four benchmark workloads: their imports, inputs and per-item runs.

`make(name, seed, tiny, workdir)` does a workload's set-up: it imports the
stochex modules the workload calls and makes the seeded inputs.  It builds no
distribution or model; that happens inside each timed item.

`Workload.run(item)` times one item and checks its output against the answer
the input's construction implies.  Its outcome is "ok", "wrong" (a verdict,
label, value or output that does not match) or "error" (the library raised,
or the CLI exited with a code the contract does not allow for that input).
Library functions are always reached through their module, so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs

# The stochex modules each workload imports during set-up.
IMPORTS = {
    "exact-chains": ("stochex.gallery", "stochex.stochorder"),
    "symmetry-scan": ("stochex.dist", "stochex.gallery", "stochex.symmetry"),
    "numeric-lab": ("numpy", "stochex.contlab", "mpmath"),
    "cli": ("stochex.cli", "mpmath"),
}

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Workload:
    """A pass of items and how to run one.

    In-process workloads are traced by installing the span wrappers around a
    pass; the cli workload is traced by setting `tracer`, which makes each
    invocation run under clichild.py and merges its span totals.
    """

    def __init__(self, name: str, items: list, runner, in_process: bool = True):
        self.name = name
        self.items = items
        self._runner = runner
        self.in_process = in_process
        self.tracer = None
        self.peak_rss_kib = 0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work: this one, or
        the largest CLI child."""
        if self.in_process:
            self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return self.peak_rss_kib / 1024.0

    def run(self, item) -> tuple[float, str, str]:
        return self._runner(item)


def _timed(fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a library failure is an item outcome
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


# ---------------------------------------------------------------------------
# exact-chains


def _exact_chains(modules, seed: int, tiny: bool, workdir) -> Workload:
    gallery, stochorder = modules["stochex.gallery"], modules["stochex.stochorder"]
    items = inputs.exact_chains(random.Random(seed), tiny)

    def build(item):
        if item["kind"] == "axes":
            return gallery.axes_dist(item["n"])
        if item["kind"] == "draws":
            return gallery.draws_dist(item["values"], item["n"])
        marginals = [gallery.symmetrize_univariate(law) for law in item["laws"]]
        return gallery.product_dist(marginals)

    def run(item):
        def work():
            d = build(item)
            return d, stochorder.classify(d)

        dt, out, err = _timed(work)
        if err:
            return dt, "error", err
        d, c = out
        labels = (c.label_max, c.label_min)
        if len(d.atoms) != item["size"]:
            return dt, "wrong", f"{len(d.atoms)} atoms, expected {item['size']}"
        if item["kind"] != "product" or item["strict"]:
            want = item.get("expect", inputs.STRICT)
            if labels != want:
                return dt, "wrong", f"labels {labels}, expected {want}"
        elif "none" in labels or not all(v.is_leq() for v in c.per_step_max + c.per_step_min):
            return dt, "wrong", f"weak chain not ordered: {labels}"
        return dt, "ok", ""

    return Workload("exact-chains", items, run)


# ---------------------------------------------------------------------------
# symmetry-scan


def _witness_error(item, w) -> str:
    """Reproduce a failing verdict's witness against the input's pmf."""
    point, image = tuple(w.point), tuple(w.reflected)
    if item["kind"] == "pair":
        pmf = dict(item["atoms"])
        prob, image_prob = pmf.get(point, Fraction(0)), pmf.get(image, Fraction(0))
        k, l, cond = item["k"], item["l"], item["cond"]
        if image != inputs.reflect(point, k, l):
            return f"witness image {image} is not the reflection of {point}"
        if not inputs.in_region(point, k, l, cond):
            return f"witness {point} is outside the {cond} region"
        if not inputs.violates(cond, prob, image_prob):
            return f"witness {point} does not violate {cond}"
    else:
        pmf = inputs.draws_pmf(item["values"], item["n"])
        prob, image_prob = pmf(point), pmf(image)
        same = {
            "E": sorted(point) == sorted(image),
            "SCI": [abs(c) for c in point] == [abs(c) for c in image],
            "ESCI": sorted(map(abs, point)) == sorted(map(abs, image)),
        }
        if not same.get(item["cond"], False):
            return f"witness image {image} is not a group image of {point}"
        if prob == image_prob:
            return f"witness {point} has equal pmf at its image"
    if (w.prob, w.reflected_prob) != (prob, image_prob):
        return f"witness probabilities {w.prob}, {w.reflected_prob} != pmf {prob}, {image_prob}"
    return ""


def _symmetry_scan(modules, seed: int, tiny: bool, workdir) -> Workload:
    dist, gallery = modules["stochex.dist"], modules["stochex.gallery"]
    symmetry = modules["stochex.symmetry"]
    items = inputs.symmetry_scan(random.Random(seed), tiny)

    def verdict(item):
        if item["kind"] == "group":
            family, n = item["family"], item["n"]
            if family == "iid-tri":
                d = gallery.iid_sym_dist("tri", n)
            elif family == "axes":
                d = gallery.axes_dist(n)
            else:
                d = gallery.draws_dist(item["values"], n)
            return symmetry.check_basic(d, item["cond"])
        d = dist.ExactJointDist.build(item["dim"], item["atoms"])
        cond, k, l = item["cond"], item["k"], item["l"]
        if cond == "RE":
            return symmetry.check_re_kl(d, k, l)
        if cond in ("URE", "LRE"):
            return symmetry.check_ure_lre(d, "upper" if cond == "URE" else "lower")
        return symmetry.check_sub_super_kl(d, k, l, cond)

    def run(item):
        dt, v, err = _timed(lambda: verdict(item))
        if err:
            return dt, "error", err
        if v.holds != item["expect"]:
            return dt, "wrong", f"{v.condition.label()} holds={v.holds}, expected {item['expect']}"
        if not v.holds:
            problem = _witness_error(item, v.witness)
            if problem:
                return dt, "wrong", problem
        return dt, "ok", ""

    return Workload("symmetry-scan", items, run)


# ---------------------------------------------------------------------------
# numeric-lab


def _numeric_lab(modules, seed: int, tiny: bool, workdir) -> Workload:
    np, contlab = modules["numpy"], modules["stochex.contlab"]
    items = inputs.numeric_lab(random.Random(seed), tiny)
    for item in items:
        if item["kind"] == "grid":
            item["region_points"] = inputs.grid_region_count(item["axes"], item["cond"])
    alpha = inputs.MC_ALPHA

    def config(item):
        return contlab.MCConfig(sample_count=item["n"], seed=item["seed"], alpha=alpha)

    def bvn_sample(item):
        mu, rho = item["mu"], item["rho"]
        return contlab.sample_gaussian([mu, -mu], [[1.0, rho], [rho, 1.0]], config(item))

    def work(item):
        kind = item["kind"]
        if kind == "ks":
            xy = bvn_sample(item)
            mu = item["mu"]
            stat = contlab.ks_distance(
                np.abs(xy.max(axis=1)), lambda t: contlab.folded_normal_cdf(t, mu)
            )
            band = contlab.dkw_band(item["n"], alpha)
            return stat <= band, f"KS {stat:.6f} vs band {band:.6f}"
        if kind == "chain":
            xy = bvn_sample(item)
            cfg = config(item)
            ax, ay = np.abs(xy[:, 0]), np.abs(xy[:, 1])
            amin, amax = np.abs(xy.min(axis=1)), np.abs(xy.max(axis=1))
            parts = [
                contlab.mc_dominance(amin, ax, cfg),
                contlab.mc_dominance(amin, ay, cfg),
                contlab.mc_dominance(ax, amax, cfg),
                contlab.mc_dominance(ay, amax, cfg),
            ]
            return all(p["pass"] for p in parts), str([p["max_deviation"] for p in parts])
        if kind == "mlr":
            r = contlab.verify_mlr_example(*item["theta"], item["family"], config(item))
            return r["pass"], f"grid violations {r['grid_violations']}"
        if kind == "grid":
            gen = None if item["nu"] is None else contlab.StudentTGenerator(item["nu"])
            model = contlab.intraclass_model(3, item["rho"], item["sigma2"], gen)
            r = contlab.density_symmetry_grid(model, item["cond"], item["axes"], k=1, l=3)
            ok = r["violations"] == 0 and r["points_in_region"] == item["region_points"]
            return ok, f"{r['violations']} violations on {r['points_in_region']} points"
        if kind == "phi2":
            values = [contlab.phi2(x, y, rho) for x, y, rho in item["points"]]
            bad = [
                (i, values[i], want) for i, want in item["oracle"]
                if not abs(values[i] - want) <= 1e-12
            ]
            ok = not bad and all(0.0 <= v <= 1.0 for v in values)
            return ok, f"oracle mismatches {bad}"
        r = contlab.verify_identity_11(item["xs"], item["rhos"])
        ok = r["pass"] and r["points"] == len(item["xs"]) * len(item["rhos"])
        return ok, f"max deviation {r['max_deviation']}"

    def run(item):
        dt, out, err = _timed(lambda: work(item))
        if err:
            return dt, "error", err
        ok, detail = out
        return dt, ("ok" if ok else "wrong"), ("" if ok else f"{item['kind']}: {detail}")

    return Workload("numeric-lab", items, run)


# ---------------------------------------------------------------------------
# cli


def _check_cli_output(check, stdout: str) -> str:
    """Empty when the CLI's stdout matches the expected answer."""
    kind, want = check
    if kind == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        got = [(Fraction(x), Fraction(c)) for x, c in rows[1:]]
        cum, expect = Fraction(0), []
        for v, p in want:
            cum += p
            expect.append((v, cum))
        return "" if rows[0] == ["x", "F"] and got == expect else f"cdf table {got}"
    out = json.loads(stdout)
    if kind == "verdict":
        w = out["witness"]
        if out["holds"]:
            return "" if w is None else "passing verdict with a witness"
        point = tuple(Fraction(c) for c in w["point"])
        image = tuple(Fraction(c) for c in w["reflected"])
        ok = (
            image == inputs.reflect(point, 1, 2)
            and Fraction(w["prob"]) == want.get(point, 0)
            and Fraction(w["reflected_prob"]) == want.get(image, 0)
            and want.get(point, 0) != want.get(image, 0)
        )
        return "" if ok else f"witness does not reproduce: {w}"
    if kind == "regions":
        got = {key: Fraction(out[key]) for key in "NSEWC"}
        return "" if got == want and out["identities"]["ok"] else f"regions {out}"
    if kind == "order":
        relation, witness = want
        got = (out["relation"], [Fraction(x) for x in out["crossing_witness"]])
        return "" if got == (relation, witness) else f"order {out}"
    if kind == "labels":
        got = (out["label_max"], out["label_min"])
        return "" if got == want else f"labels {got}"
    if kind == "gallery":
        return "" if all(r["pass"] for r in out["expectations"]) else f"gallery {out}"
    if kind == "phi2":
        return "" if abs(out["phi2"] - want) <= 1e-12 else f"phi2 {out['phi2']} vs {want}"
    return "" if out["pass"] is True else f"report {out}"


def run_cli(argv, env, launcher, workdir: Path) -> tuple[float, subprocess.CompletedProcess, int]:
    """Wall time, result and peak RSS (KiB) of one invocation.

    Output goes to files so that os.wait4 can reap the child and report its
    own resource usage.
    """
    with open(workdir / "stdout", "w+") as out, open(workdir / "stderr", "w+") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([*launcher, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(argv, child.returncode, out.read(), err.read())
    return elapsed, proc, usage.ru_maxrss


def judge_cli(item, proc) -> tuple[str, str]:
    code, expect = proc.returncode, item["exit"]
    if "Traceback" in proc.stderr or code not in (0, 1, 2):
        return "error", f"exit {code} with a traceback: {proc.stderr.strip().splitlines()[-1:]}"
    if code != expect:
        # 0 against 1 is a wrong verdict; anything against 2 is a usage failure.
        kind = "wrong" if {code, expect} == {0, 1} else "error"
        return kind, f"exit {code}, expected {expect}"
    if item["check"] is not None:
        try:
            problem = _check_cli_output(item["check"], proc.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            return "wrong", problem
    return "ok", ""


def _cli(modules, seed: int, tiny: bool, workdir) -> Workload:
    items, files = inputs.cli_mix(random.Random(seed), workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    env = child_env()
    stats_file = workdir / "spans.json"

    def run(item):
        if workload.tracer is None:
            launcher = [sys.executable, "-m", "stochex.cli"]
        else:
            launcher = [sys.executable, str(BENCH / "clichild.py"), "trace", str(stats_file)]
        dt, proc, rss_kib = run_cli(item["argv"], env, launcher, workdir)
        if workload.tracer is not None:
            workload.tracer.merge(json.loads(stats_file.read_text()))
        workload.peak_rss_kib = max(workload.peak_rss_kib, rss_kib)
        outcome, detail = judge_cli(item, proc)
        return dt, outcome, detail

    workload = Workload("cli", items, run, in_process=False)
    return workload


MAKERS = {
    "exact-chains": _exact_chains,
    "symmetry-scan": _symmetry_scan,
    "numeric-lab": _numeric_lab,
    "cli": _cli,
}


def make(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    modules = {m: importlib.import_module(m) for m in IMPORTS[name]}
    return MAKERS[name](modules, seed, tiny, workdir)
