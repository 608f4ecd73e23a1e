"""Output checks for the four benchmark workloads.

Every expected value is computed here from a closed form or from a property
the method must have; nothing is compared against a stored copy of earlier
output, because `jc-suite` bits depend on the BLAS thread count and the
trajectory sampler's random stream may change.

Each `check_<experiment>(outdir, inputs)` reads the artifacts in `outdir`
and returns a list of `(name, passed, detail)`.  `inputs` is the flat config
the benchmark passed; keys it leaves to their defaults are read from the
resolved config that the run echoes in `manifest.json`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> dict:
    """Columns of a header-first numeric CSV, by header name."""
    header = path.read_text(encoding="ascii").split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def resolved(outdir: Path, inputs: dict) -> dict:
    """The run's resolved config; the benchmark's own inputs take precedence."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {**manifest["config"], **inputs}


def _worst(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def _echo_check(outdir: Path, inputs: dict):
    config = json.loads((outdir / "manifest.json").read_text())["config"]
    bad = {k: config.get(k) for k, v in inputs.items() if config.get(k) != v}
    return ("config_echo", not bad, f"mismatched keys {bad}" if bad else "all inputs echoed")


# ---------------------------------------------------------------------------
# force-trajectories


def _within_5_stderr(name, estimate, stderr, expected, scale):
    """|estimate - expected| <= 5 stderr at every step (stderr is 0 where the
    estimate is exact, so rounding of order 1e-12 scale is allowed)."""
    dev = np.abs(estimate - expected)
    ok = bool(np.all(dev <= 5.0 * stderr + 1e-12 * scale))
    z = float(np.max(dev[stderr > 0] / stderr[stderr > 0])) if np.any(stderr > 0) else 0.0
    return (name, ok, f"worst deviation {z:.2f} stderr, at exact points {float(np.max(dev[stderr == 0], initial=0.0)):.3g}")


def check_force(outdir: Path, inputs: dict) -> list:
    cfg = resolved(outdir, inputs)
    nu, tau, steps = cfg["force.nu"], cfg["force.tau"], cfg["force.steps"]
    f0_geo = (cfg["probe.G"] * cfg["probe.m"] * cfg["probe.m0"] * cfg["probe.L"]
              / (2.0 * (cfg["probe.y"] ** 2 + cfg["probe.L"] ** 2 / 4.0) ** 1.5))
    gamma = nu**2 * tau / 2.0
    meta = json.loads((outdir / "metadata.json").read_text())
    results = json.loads((outdir / "manifest.json").read_text())["results"]
    stats = read_csv(outdir / "statistics.csv")
    series = read_csv(outdir / "mean_series.csv")
    decay = np.cos(nu * tau)
    out = [_echo_check(outdir, inputs)]

    lags = stats["lag_steps"]
    out.append(("lag_grid", np.array_equal(lags, np.arange(steps + 1))
                and np.array_equal(series["step"], np.arange(steps + 1)),
                f"{lags.size} lags, {series['step'].size} steps, expected {steps + 1}"))
    f0 = meta["f0"]
    out.append(("f0_geometry", abs(f0 - f0_geo) <= 1e-12 * f0_geo
                and abs(results["f0"] - f0_geo) <= 1e-12 * f0_geo,
                f"f0 {f0!r} (manifest {results['f0']!r}), geometry {f0_geo!r}"))
    lag0 = stats["corr"][0]
    out.append(("lag0_exact", abs(lag0 - f0_geo**2) <= 1e-12 * f0_geo**2,
                f"corr[0] {float(lag0)!r}, f0^2 {f0_geo**2!r}"))

    out.append(_within_5_stderr("mean_5_stderr", series["mean"], series["stderr"],
                                -f0_geo * decay ** series["step"], f0_geo))
    out.append(_within_5_stderr("corr_5_stderr", stats["corr"], stats["stderr"],
                                f0_geo**2 * decay**lags, f0_geo**2))

    rates = {"corr": results["fitted_gamma_corr"], "mean": results["fitted_gamma_mean"]}
    rel = {k: abs(v / gamma - 1.0) for k, v in rates.items()}
    out.append(("fitted_rates_5pct", max(rel.values()) <= 0.05,
                f"relative deviation from nu^2 tau/2 = {gamma:.6g}: "
                + ", ".join(f"{k} {v:.3%}" for k, v in rel.items())))
    out.append(("gamma_recorded", abs(meta["Gamma"] - gamma) <= 1e-12 * gamma
                and abs(results["gamma_theory"] - gamma) <= 1e-12 * gamma,
                f"Gamma {meta['Gamma']!r} (manifest {results['gamma_theory']!r}), "
                f"nu^2 tau/2 {gamma!r}"))
    return out


# ---------------------------------------------------------------------------
# jc-suite


def check_jc(outdir: Path, inputs: dict) -> list:
    cfg = resolved(outdir, inputs)
    omega = cfg["jc.omega"]
    nu = cfg["jc.nu_over_omega"] * omega
    g = cfg["jc.g_over_omega"] * omega
    zeta0_sq = (g / omega) ** 2
    ts = read_csv(outdir / "timeseries.csv")
    t = ts["t"]
    out = [_echo_check(outdir, inputs)]

    t_expected = np.linspace(0.0, cfg["jc.nu_t_max"] / nu, cfg["jc.samples"])
    out.append(("time_grid", t.size == t_expected.size
                and _worst(t, t_expected) <= 1e-12 * t_expected[-1],
                f"{t.size} samples up to t = {float(t[-1]):.6g}"))
    dressed = np.sin(nu * math.exp(-2.0 * zeta0_sq) * t) ** 2
    dev = _worst(ts["p_exact"], dressed)
    out.append(("dressed_law", dev <= 0.05,
                f"max |p_exact - sin^2(nu e^(-2|zeta0|^2) t)| = {dev:.3g}"))
    peak = float(np.max(ts["p_exact"]))
    out.append(("full_contrast", peak >= 0.99, f"max p_exact = {peak:.6f}"))
    bare = np.sin(nu * t) ** 2
    dev_rabi = _worst(ts["p_rabi"], bare)
    dev_pert = _worst(ts["p_perturbative"], bare)
    out.append(("bare_rabi_columns", max(dev_rabi, dev_pert) <= 1e-9,
                f"p_rabi {dev_rabi:.3g}, p_perturbative {dev_pert:.3g} from sin^2(nu t)"))
    zeta = -(g / omega) * (1.0 - np.exp(-1j * omega * t))
    dev_zeta = _worst(ts["zeta_re"] + 1j * ts["zeta_im"], zeta)
    out.append(("pointer_path", dev_zeta <= 1e-12 * max(1.0, abs(g / omega)),
                f"max |zeta - closed form| = {dev_zeta:.3g}"))
    purity = ts["purity"]
    out.append(("purity_range", bool(np.all((purity >= 0.5 - 1e-12) & (purity <= 1.0 + 1e-12)))
                and abs(purity[0] - 1.0) <= 1e-12,
                f"purity in [{purity.min():.6f}, {purity.max():.6f}], at t=0 {float(purity[0])!r}"))
    return out


# ---------------------------------------------------------------------------
# g2s-correlations


def check_g2s(outdir: Path, inputs: dict) -> list:
    cfg = resolved(outdir, inputs)
    nu, chi = cfg["g2s.nu"], cfg["g2s.chi"]
    m, ell = cfg["g2s.m"], cfg["g2s.ell"]
    c_plus = complex(cfg["g2s.c_plus_re"], cfg["g2s.c_plus_im"])
    c_minus = complex(cfg["g2s.c_minus_re"], cfg["g2s.c_minus_im"])
    norm = math.hypot(abs(c_plus), abs(c_minus))
    c_plus, c_minus = c_plus / norm, c_minus / norm
    delta = abs(c_plus) ** 2 - abs(c_minus) ** 2
    beta = (2.0 * np.conj(c_plus) * c_minus * np.exp(1j * chi)).real
    times = np.linspace(cfg["grid.t_min"], cfg["grid.t_max"], cfg["grid.t_count"])
    scale = m**2 / ell**6
    out = [_echo_check(outdir, inputs)]

    mean = read_csv(outdir / "mean_density.csv")
    n_t = times.size
    mean_ok = (mean["a"].size == 2 * n_t
               and np.array_equal(mean["a"], np.tile([1.0, -1.0], n_t))
               and _worst(mean["t"], np.repeat(times, 2)) == 0.0)
    mean_expected = m / (2.0 * ell**3) * (
        1.0 + mean["a"] * (delta * np.cos(nu * mean["t"]) + beta * np.sin(nu * mean["t"])))
    dev_mean = _worst(mean["mean"], mean_expected) if mean_ok else math.inf
    out.append(("mean_closed_form", dev_mean <= 1e-12 * m / ell**3,
                f"max |mean - (m/2l^3)(1 + a(delta cos + beta sin))| = {dev_mean:.3g}"))
    mean_of = {(int(a), float(tt)): v for a, tt, v in zip(mean["a"], mean["t"], mean["mean"])}

    c = read_csv(outdir / "correlations.csv")
    n_pairs = n_t * (n_t + 1) // 2
    shape_ok = c["a1"].size == 4 * n_pairs
    out.append(("pair_grid", shape_ok, f"{c['a1'].size} rows, expected {4 * n_pairs}"))
    if not shape_ok:
        return out
    # Rows come in blocks of four per (t1, t2): (a1, a2) = (+,+), (+,-), (-,+), (-,-).
    a1, a2 = c["a1"].reshape(-1, 4), c["a2"].reshape(-1, 4)
    t1, t2 = c["t1"].reshape(-1, 4)[:, 0], c["t2"].reshape(-1, 4)[:, 0]
    layout_ok = (np.all(a1 == [1, 1, -1, -1]) and np.all(a2 == [1, -1, 1, -1])
                 and np.all(c["t1"].reshape(-1, 4) == t1[:, None])
                 and np.all(c["t2"].reshape(-1, 4) == t2[:, None]) and np.all(t1 <= t2))
    out.append(("pair_layout", bool(layout_ok), "four (a1, a2) rows per ordered (t1, t2)"))
    if not layout_ok:
        return out
    q = (c["quantum_re"] + 1j * c["quantum_im"]).reshape(-1, 4)
    s = c["statistical"].reshape(-1, 4)
    tol = 1e-12 * scale

    dev = max(_worst(q.sum(axis=1), scale), _worst(s.sum(axis=1), scale))
    out.append(("sum_rule", dev <= tol, f"max |sum over (a1, a2) - m^2/l^6| = {dev:.3g}"))

    m1 = np.array([[mean_of[(1, x)], mean_of[(-1, x)]] for x in t1])
    m2 = np.array([[mean_of[(1, x)], mean_of[(-1, x)]] for x in t2])
    k = m / ell**3
    over_a2 = np.stack([q[:, 0] + q[:, 1], q[:, 2] + q[:, 3]], axis=1)
    over_a1 = np.stack([q[:, 0] + q[:, 2], q[:, 1] + q[:, 3]], axis=1)
    s_over_a2 = np.stack([s[:, 0] + s[:, 1], s[:, 2] + s[:, 3]], axis=1)
    dev = max(_worst(over_a2, k * m1), _worst(over_a1, k * m2), _worst(s_over_a2, k * m1))
    out.append(("marginals", dev <= tol,
                f"max |marginal - (m/l^3) mean| = {dev:.3g} (quantum over a2 and a1, "
                "statistical over a2)"))

    eq = t1 == t2
    diag = np.stack([k * m1[eq, 0], np.zeros(eq.sum()), np.zeros(eq.sum()), k * m1[eq, 1]], axis=1)
    dev = _worst(q[eq], diag) if eq.any() else math.inf
    out.append(("equal_time", dev <= tol,
                f"{int(eq.sum())} equal-time pairs, max |q - delta(a1,a2)(m/l^3) mean| = {dev:.3g}"))

    lo, hi = float(s.min()), float(s.max())
    out.append(("statistical_range", lo >= -tol and hi <= scale + tol,
                f"statistical in [{lo:.3g}, {hi:.3g}], bounds [0, {scale:.3g}]"))
    return out


# ---------------------------------------------------------------------------
# density-suite


def _cat_density(x, sigma: float, separation: float) -> np.ndarray:
    """|psi(x)|^2 of the equal-weight two-branch cat, branches at +/- separation/2."""
    a = 0.5 * separation
    branch = lambda c: (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((x - c) ** 2) / (4.0 * sigma**2))  # noqa: E731
    overlap = math.exp(-separation**2 / (8.0 * sigma**2))
    return (branch(a) + branch(-a)) ** 2 / (2.0 * (1.0 + overlap))


def check_density(outdir: Path, inputs: dict) -> list:
    cfg = resolved(outdir, inputs)
    sigma, m = cfg["density.sigma"], cfg["density.m"]
    separation = cfg["density.L"] if cfg["density.state"] == "cat" else 0.0
    out = [_echo_check(outdir, inputs)]

    w = read_csv(outdir / "wigner.csv")
    xs, ps = np.unique(w["x"]), np.unique(w["p"])
    grid_ok = w["w"].size == xs.size * ps.size
    out.append(("wigner_grid", grid_ok, f"{w['w'].size} points on {xs.size} x {ps.size} axes"))
    if not grid_ok:
        return out
    values = w["w"].reshape(xs.size, ps.size)
    marginal = np.trapezoid(values, ps, axis=1) / (2.0 * np.pi)
    norm = float(np.trapezoid(marginal, xs))
    out.append(("wigner_normalization", abs(norm - 1.0) <= 1e-6, f"normalization {norm!r}"))
    density = _cat_density(xs, sigma, separation)
    dev = _worst(marginal, density)
    out.append(("wigner_x_marginal", dev <= 1e-6 * density.max(),
                f"max |int W dp/2pi - |psi|^2| = {dev:.3g} (peak {density.max():.3g})"))
    w_min = float(values.min())
    out.append(("wigner_negative", w_min < 0.0, f"min W = {w_min:.4g}"))

    sm = read_csv(outdir / "static_mean.csv")
    exact = m * _cat_density(sm["x"], sigma, separation)
    dev = _worst(sm["smeared_mean"], exact)
    out.append(("smeared_mean", sm["x"].size > 0 and dev <= 1e-6 * exact.max(),
                f"max |smeared mean - m|psi|^2| = {dev:.3g} (peak {exact.max():.3g})"))

    kd = read_csv(outdir / "kolmogorov_defect.csv")
    generic = kd["mass"] == m
    heavy = kd["mass"] > 1e6 * m
    dt, defect = kd["delta_t"][generic], kd["defect"][generic]
    order = np.argsort(dt)
    strictly = dt.size >= 2 and bool(np.all(np.diff(defect[order]) > 0) and np.all(np.diff(dt[order]) > 0))
    out.append(("defect_decreases_with_dt", strictly,
                "generic-mass defect by delta_t: "
                + ", ".join(f"{a:g}: {b:.3g}" for a, b in zip(dt[order], defect[order]))))
    heavy_max = float(kd["defect"][heavy].max()) if heavy.any() else math.inf
    out.append(("heavy_mass_defect", heavy_max <= 1e-12, f"heavy-mass defect {heavy_max:.3g}"))
    return out


def run_checks(experiment: str, outdir: Path, inputs: dict) -> list:
    """All checks of one run's artifacts, as (name, passed, detail).

    Artifacts too malformed to check at all give one failed `artifacts_readable`.
    """
    try:
        results = CHECKS[experiment](outdir, inputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("artifacts_readable", False, f"{type(exc).__name__}: {exc}")]
    return [(name, bool(ok), detail) for name, ok, detail in results]


CHECKS = {
    "force-trajectories": check_force,
    "jc-suite": check_jc,
    "g2s-correlations": check_g2s,
    "density-suite": check_density,
}
