"""The four benchmark workloads: seeded inputs, one timed pass, per-item checks.

``make_inputs(seed, work_dir)`` uses only the standard library, so input
generation is the same on every machine; the package receives only the
generated values.  ``run(inputs, work_dir, traced)`` returns one item per
checked result: ``{"name", "ok", "detail", "outputs"}``.  An item fails on a
false verdict, an exception or (``suite``) a worker-count byte mismatch; the
driver adds reference deviations and outputs that differ between passes.
Every call into the package goes through a module attribute, so the
tracer's wrappers see it.

Why these workloads (each loads a different layer):

* ``window``: the criterion-6 sweep; ``special.zeta_line`` dominates, and
  quadrature evaluation counts and ``meansquare`` ride along.
* ``blocks``: long Dirichlet polynomials (M up to 16) through the closed-form
  blocks; ``arithmetic.divisor_sigma_range`` dominates and no zeta is called.
  Run by hand only: its sieve loop's wall time swung by up to 70% between
  passes on a shared 2-vCPU host, too much for a gated bound, so it is not
  listed in ``BENCHMARK.json``.
* ``benches``: stationary-phase and Voronoi benches; cheap integrands on many
  phase-width panels, so quadrature self time and ``special.bessel`` dominate.
* ``suite``: the ``zetastrip suite`` command at 1 and 2 workers, the only
  path through ``scenarios``, ``cli``, report writing and the process pool.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import itertools
import json
import math
import random
import shutil
from pathlib import Path

from zetastrip import arithmetic, cli, explicit, meansquare, saddle, scenarios, voronoi

BENCH_DIR = Path(__file__).resolve().parent
SUITE_TEMPLATES = BENCH_DIR / "suite"

# Reading of the window identity that reconciles with quadrature (criterion 6).
VARIANTS = {"sigma1_variant": "resolved", "sigma2_variant": "halved"}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _item(name: str, check) -> dict:
    """Run ``check() -> (ok, detail, outputs)``; an exception fails the item."""
    try:
        ok, detail, outputs = check()
    except Exception as exc:  # any package error is a failed item, not a crash
        return {"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}", "outputs": {}}
    return {"name": name, "ok": bool(ok), "detail": detail, "outputs": outputs}


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# window: integrate_mean_square over [T, 2T] and the identity-residual gate
# ---------------------------------------------------------------------------


def window_inputs(seed: int, work_dir: Path) -> dict:
    rng = _rng("window", seed)
    sigma, c2 = (0.4, 1.0) if seed == 0 else (rng.uniform(0.37, 0.44), rng.uniform(0.9, 1.1))
    return {"sigma": sigma, "coefficients": [1.0, c2], "t_values": [125.0, 250.0, 500.0, 1000.0]}


def window_run(inputs: dict, work_dir: Path, traced: bool) -> list[dict]:
    cfg = meansquare.StripConfig(inputs["sigma"])
    poly = arithmetic.DirichletPolynomial(tuple(inputs["coefficients"]))

    def one(T: float):
        quad = meansquare.integrate_mean_square(T, 2.0 * T, cfg, poly)
        window = explicit.WindowConfig(0.5, 2.0, T, T)
        upper = explicit.explicit_terms(window.scaled(2.0), cfg, poly, **VARIANTS)
        lower = explicit.explicit_terms(window, cfg, poly, **VARIANTS)
        residual = float(quad.value) - (upper.block_total - lower.block_total)
        rms = math.sqrt(
            (upper.sigma1**2 + upper.sigma2**2 + lower.sigma1**2 + lower.sigma2**2) / 4.0
        )
        ok = abs(residual) <= 0.2 * rms
        outputs = {
            "integral": float(quad.value),
            "upper": [upper.sigma1, upper.sigma2, upper.main],
            "lower": [lower.sigma1, lower.sigma2, lower.main],
            "residual": residual,
        }
        return ok, f"|residual| {abs(residual):.4g} vs 0.2 * oscillation RMS {rms:.4g}", outputs

    return [_item(f"T={T:g}", lambda T=T: one(T)) for T in inputs["t_values"]]


# ---------------------------------------------------------------------------
# blocks: closed-form blocks of long mollifier-shaped polynomials
# ---------------------------------------------------------------------------

BLOCK_LENGTHS = (1, 4, 16)


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def mollifier(length: int) -> list[float]:
    """Levinson/Conrey shape ``mu(m) log(M/m) / log M`` (``a(1) = 1`` when ``M = 1``)."""
    if length == 1:
        return [1.0]
    return [_moebius(m) * math.log(length / m) / math.log(length) for m in range(1, length + 1)]


def blocks_inputs(seed: int, work_dir: Path) -> dict:
    # One seeded magnitude per polynomial: the blocks are Hermitian forms in
    # the coefficients, so dividing by scale^2 makes every seed comparable
    # with the recorded reference.  The zero pattern is fixed by M.
    rng = _rng("blocks", seed)
    scales = {str(m): 1.0 if seed == 0 else rng.uniform(0.5, 2.0) for m in BLOCK_LENGTHS}
    return {
        "sigma": 0.4,
        "t": 250.0,
        "scales": scales,
        "coefficients": {str(m): [scales[str(m)] * c for c in mollifier(m)] for m in BLOCK_LENGTHS},
    }


def blocks_run(inputs: dict, work_dir: Path, traced: bool) -> list[dict]:
    cfg = meansquare.StripConfig(inputs["sigma"])
    lower = explicit.WindowConfig(0.5, 2.0, inputs["t"], inputs["t"])
    items = []
    for m in BLOCK_LENGTHS:
        poly = arithmetic.DirichletPolynomial(tuple(inputs["coefficients"][str(m)]))
        norm = inputs["scales"][str(m)] ** 2
        for end, window in (("lower", lower), ("upper", lower.scaled(2.0))):

            def one(poly=poly, norm=norm, window=window):
                terms = explicit.explicit_terms(window, cfg, poly, **VARIANTS)
                values = [terms.sigma1 / norm, terms.sigma2 / norm, terms.main / norm]
                return _finite(*values), f"{terms.terms_used_1 + terms.terms_used_2} terms", {
                    "sigma1": values[0],
                    "sigma2": values[1],
                    "main": values[2],
                }

            items.append(_item(f"M={m}.{end}", one))
    return items


# ---------------------------------------------------------------------------
# benches: stationary-phase lemmas and the Voronoi remainder (no zeta)
# ---------------------------------------------------------------------------


def benches_inputs(seed: int, work_dir: Path) -> dict:
    rng = _rng("benches", seed)

    def jitter(width: float) -> float:
        return 0.0 if seed == 0 else rng.uniform(-width, width)

    return {
        "lemma2_exponents": [ab + jitter(0.02) for ab in (0.55, 0.6, 0.65)],
        "lemma2_k": [1.0, 2.0, 5.0],
        "lemma2_t": [100.0, 400.0],
        "lemma3_alphas": [1.25 + jitter(0.05), 1.5 + jitter(0.05)],
        "lemma4_alpha": 1.5 + jitter(0.1),
        "voronoi_a": -0.2 + jitter(0.03),
        "voronoi_points": 200,
        "voronoi_terms": 2000,
        "mean_square_sigma": 0.4 + jitter(0.02),
        "mean_square_u": [64.0, 128.0, 256.0, 512.0],
    }


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def benches_run(inputs: dict, work_dir: Path, traced: bool) -> list[dict]:
    items = []
    exponents = enumerate(inputs["lemma2_exponents"])
    cells = itertools.product(exponents, inputs["lemma2_k"], inputs["lemma2_t"], (1, -1))
    for (index, ab), k, T, sign in cells:

        def lemma2(ab=ab, k=k, T=T, sign=sign):
            spec = saddle.ExpIntegralSpec(
                alpha=ab, beta=ab, gamma=1.0, a_lo=0.01, b_hi=2.5 * T, k_freq=k, T=T, sign=sign
            )
            report = saddle.lemma2_compare(spec)
            ratio = report.difference / report.budget_total
            outputs = {"lhs": _pair(report.lhs), "saddle": _pair(report.saddle)}
            return report.passed, f"|lhs - saddle| / budget {ratio:.4g}", outputs

        items.append(_item(f"lemma2.ab{index}.k{k:g}.T{T:g}.{'+' if sign > 0 else '-'}", lemma2))

    for index, alpha in enumerate(inputs["lemma3_alphas"]):

        def lemma3(alpha=alpha):
            report = saddle.lemma3_decay(alpha, 1.0, [50.0, 100.0, 200.0, 400.0])
            return report.passed, f"spread {report.max_min_ratio:.4g}", {"magnitudes": list(report.magnitudes)}

        items.append(_item(f"lemma3.{index}", lemma3))

    def lemma4():
        T = 200.0
        report = saddle.lemma4_compare(inputs["lemma4_alpha"], 3, math.sqrt(T), 10.0 * math.sqrt(T), T)
        outputs = {"lhs": _pair(report.lhs), "saddle": _pair(report.saddle)}
        return report.passed, f"|lhs - saddle| / budget {report.difference / report.budget_total:.4g}", outputs

    items.append(_item("lemma4", lemma4))

    # Raw remainder vs the Bessel series (criterion 2's tolerance), and the
    # asymptotic cosine form vs the Bessel series within the scenario floor.
    spec = voronoi.TwistedSumSpec(a=inputs["voronoi_a"], h=1, k_mod=3)
    setup: dict = {}

    def voronoi_setup():
        calibration = voronoi.calibrate(spec, power_modulus_exponent=-1.0 - spec.a)
        plan = voronoi.truncation_plan(spec, (40.0, 400.0), inputs["voronoi_terms"])
        setup.update(plan=plan, tolerance=max(1e-3, 3.0 * plan.tail_estimate + calibration.std_error))
        return True, f"tolerance {setup['tolerance']:.4g}", {"c0": _pair(calibration.c0)}

    items.append(_item("voronoi.calibrate", voronoi_setup))
    count = inputs["voronoi_points"]
    xs = [40.0 * 10.0 ** (i / (count - 1)) for i in range(count)]
    for x in xs:

        def point(x=x):
            direct = voronoi.delta_direct(spec, x)
            series = voronoi.delta_bessel(spec, x, setup["plan"])
            asymptotic = voronoi.delta_asymptotic(spec, x, setup["plan"])
            gap, asym_gap = abs(direct - series), abs(asymptotic - series)
            ok = gap <= setup["tolerance"] and asym_gap <= 1e-3
            outputs = {"direct": _pair(direct), "bessel": _pair(series), "asymptotic": _pair(asymptotic)}
            return ok, f"|direct - bessel| {gap:.4g}, |asymptotic - bessel| {asym_gap:.3g}", outputs

        items.append(_item(f"voronoi.x{x:.6g}", point))

    def mean_square():
        sigma = inputs["mean_square_sigma"]
        ms_spec = voronoi.TwistedSumSpec(a=voronoi.exponent_from_sigma(sigma), h=1, k_mod=3)
        voronoi.calibrate(ms_spec, power_modulus_exponent=-1.0 - ms_spec.a)
        values = [voronoi.delta_mean_square(ms_spec, u) for u in inputs["mean_square_u"]]
        ratios = [v / u ** (0.5 + 2.0 * sigma) for v, u in zip(values, inputs["mean_square_u"])]
        spread = max(ratios) / min(ratios)
        return spread <= 20.0, f"envelope spread {spread:.4g}", {"values": values}

    items.append(_item("delta_mean_square", mean_square))
    return items


# ---------------------------------------------------------------------------
# suite: the CLI suite at 1 and 2 workers on seeded scenario variants
# ---------------------------------------------------------------------------

# Parameter ranges for seeds other than 0: (parameter, coefficient index or
# None, low, high).  Only values that leave the work per scenario unchanged
# are varied, and every range keeps the scenario's verdict passing.
SUITE_JITTER = {
    "mean_square_small": [("sigma", None, 0.33, 0.37), ("coefficients", 1, 0.4, 0.6)],
    "theorem1_empty": [("sigma", None, 0.38, 0.42)],
    "theorem1_resolved": [("sigma", None, 0.38, 0.42), ("coefficients", 1, 0.9, 1.1)],
    "theorem2_small": [("sigma", None, 0.38, 0.42), ("coefficients", 0, 0.8, 1.2)],
    "voronoi_equivalence": [("a", None, -0.23, -0.17)],
    "saddle_lemma2": [("alpha", None, 0.55, 0.65), ("beta", None, 0.55, 0.65)],
    "saddle_lemma3": [("alpha", None, 1.4, 1.6)],
    "saddle_lemma4": [("alpha", None, 1.35, 1.65)],
}
SUITE_WORKERS = (1, 2)


def suite_inputs(seed: int, work_dir: Path) -> dict:
    rng = _rng("suite", seed)
    target = work_dir / "scenarios"
    target.mkdir(parents=True)
    shutil.copyfile(SUITE_TEMPLATES / "suite.ini", target / "suite.ini")
    for stem, ranges in SUITE_JITTER.items():
        source = SUITE_TEMPLATES / f"{stem}.ini"
        if seed == 0:
            shutil.copyfile(source, target / source.name)
            continue
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
        parser.read(source, encoding="utf-8")
        params = parser["parameters"]
        for name, index, low, high in ranges:
            value = rng.uniform(low, high)
            if index is None:
                params[name] = repr(value)
            else:
                coefficients = [c.strip() for c in params[name].split(",")]
                coefficients[index] = repr(value)
                params[name] = ", ".join(coefficients)
        with open(target / source.name, "w", encoding="utf-8") as handle:
            parser.write(handle)
    return {"suite": str(target / "suite.ini"), "stems": list(SUITE_JITTER)}


def _read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def suite_run(inputs: dict, work_dir: Path, traced: bool) -> list[dict]:
    outputs: dict[int, dict[str, bytes]] = {}
    codes: dict[int, int] = {}
    for workers in SUITE_WORKERS:
        out = work_dir / f"w{workers}"
        with contextlib.redirect_stdout(io.StringIO()):
            codes[workers] = cli.main(["suite", inputs["suite"], "--out", str(out), "--workers", str(workers)])
        outputs[workers] = _read_dir(out)
    in_process = {}
    if traced:
        # Workers are spawned without the tracer, so run each scenario here to
        # trace the scenario layers; its files must match the workers' bytes.
        out = work_dir / "traced"
        for path in scenarios.load_suite(inputs["suite"]):
            scenarios.execute_scenario(path, out)
        in_process = _read_dir(out)

    def reports(workers: int, stem: str) -> dict[str, bytes]:
        return {n: b for n, b in outputs[workers].items() if n.rsplit(".", 1)[0] == stem}

    items = []
    for stem in inputs["stems"] + ["suite_summary"]:

        def one(stem=stem):
            files = {w: reports(w, stem) for w in SUITE_WORKERS}
            first = files[SUITE_WORKERS[0]]
            if not first or f"{stem}.json" not in first:
                return False, "no JSON report written", {}
            problems = [f"workers={w} bytes differ" for w in SUITE_WORKERS[1:] if files[w] != first]
            if in_process and stem != "suite_summary":
                if {n: b for n, b in in_process.items() if n.rsplit(".", 1)[0] == stem} != first:
                    problems.append("in-process bytes differ")
            problems += [f"workers={w} exit code {codes[w]}" for w in SUITE_WORKERS if codes[w] != 0]
            report = json.loads(first[f"{stem}.json"])
            if not report["verdict"]["passed"]:
                problems.append(f"verdict failed: {report['verdict']['detail']}")
            return not problems, "; ".join(problems) or report["verdict"]["detail"], report

        items.append(_item(stem, one))
    return items


WORKLOADS = {
    "window": (window_inputs, window_run),
    "blocks": (blocks_inputs, blocks_run),
    "benches": (benches_inputs, benches_run),
    "suite": (suite_inputs, suite_run),
}
