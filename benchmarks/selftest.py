"""Shows that every output check can fail.

    python3 benchmarks/selftest.py

Runs each workload once, requires all its checks to pass, then applies one
corruption per check to a copy of the artifacts (a wrong rate, a wrong
constant, a dropped row) and requires that check to fail.  Exits 1 if a
good run fails a check or a corruption goes unnoticed.  Takes about 40 s
and 1 GB (the force ensemble).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import read_csv, run_checks  # noqa: E402
from run import ROOT, WORK, WORKLOADS, child_env, spawn  # noqa: E402


def _load(path: Path):
    cols = read_csv(path)
    return list(cols), np.column_stack(list(cols.values()))


def _save(path: Path, header, data):
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def column(file: str, name: str, fn):
    """Corruption replacing column `name` of `file` by fn(columns dict)."""
    def apply(outdir: Path):
        header, data = _load(outdir / file)
        cols = {h: data[:, i] for i, h in enumerate(header)}
        data[:, header.index(name)] = fn(cols)
        _save(outdir / file, header, data)
    return apply


def rows(file: str, fn):
    """Corruption replacing the data rows of `file` by fn(rows)."""
    def apply(outdir: Path):
        header, data = _load(outdir / file)
        _save(outdir / file, header, fn(data))
    return apply


def json_field(file: str, path: tuple, fn):
    def apply(outdir: Path):
        obj = json.loads((outdir / file).read_text())
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        (outdir / file).write_text(json.dumps(obj))
    return apply


def both(*fns):
    def apply(outdir: Path):
        for fn in fns:
            fn(outdir)
    return apply


def _g2s_off_diagonal(eps_sign, where):
    """Adds +/-1e-6 to quantum_re in the rows selected by `where(cols)`,
    with the sign pattern eps_sign(a1, a2)."""
    def fn(c):
        return c["quantum_re"] + 1e-6 * where(c) * eps_sign(c["a1"], c["a2"])
    return column("correlations.csv", "quantum_re", fn)


FORCE = WORKLOADS["force-ensemble"][1]
DECAY = math.cos(FORCE["force.nu"] * FORCE["force.tau"])  # cos(nu tau), f0 = 1
JC = WORKLOADS["probe-dynamics"][1]
NU_JC = JC["jc.nu_over_omega"]  # omega = 1
DRESSED_JC = NU_JC * math.exp(-2.0 * JC["jc.g_over_omega"] ** 2)
NU_G2S = WORKLOADS["g2s-grid"][1]["g2s.nu"]  # m = ell = 1

# experiment -> [(check that must fail, what the corruption does, corruption)]
CORRUPTIONS = {
    "force-trajectories": [
        ("config_echo", "force.nu echoed as 0.11",
         json_field("manifest.json", ("config", "force.nu"), lambda v: 0.11)),
        ("lag_grid", "last lag row dropped", rows("statistics.csv", lambda d: d[:-1])),
        ("f0_geometry", "f0 scaled by 1.1", both(
            json_field("metadata.json", ("f0",), lambda v: 1.1 * v),
            json_field("manifest.json", ("results", "f0"), lambda v: 1.1 * v))),
        ("lag0_exact", "corr[0] off by 1e-9", column(
            "statistics.csv", "corr", lambda c: c["corr"] + 1e-9 * (c["lag_steps"] == 0))),
        ("mean_5_stderr", "mean decays at 1.1 Gamma", column(
            "mean_series.csv", "mean", lambda c: -DECAY ** (1.1 * c["step"]))),
        ("corr_5_stderr", "correlation decays at 1.1 Gamma", column(
            "statistics.csv", "corr", lambda c: DECAY ** (1.1 * c["lag_steps"]))),
        ("fitted_rates_5pct", "fitted Gamma scaled by 1.1", json_field(
            "manifest.json", ("results", "fitted_gamma_corr"), lambda v: 1.1 * v)),
        ("gamma_recorded", "recorded Gamma scaled by 1.1", json_field(
            "metadata.json", ("Gamma",), lambda v: 1.1 * v)),
    ],
    "jc-suite": [
        ("config_echo", "jc.dim echoed as 32",
         json_field("manifest.json", ("config", "jc.dim"), lambda v: 32)),
        ("time_grid", "times stretched by 1%", column("timeseries.csv", "t", lambda c: 1.01 * c["t"])),
        ("dressed_law", "p_exact at the bare rate", column(
            "timeseries.csv", "p_exact", lambda c: np.sin(NU_JC * c["t"]) ** 2)),
        ("full_contrast", "p_exact scaled by 0.98", column(
            "timeseries.csv", "p_exact", lambda c: 0.98 * c["p_exact"])),
        ("bare_rabi_columns", "p_perturbative at the dressed rate", column(
            "timeseries.csv", "p_perturbative",
            lambda c: np.sin(DRESSED_JC * c["t"]) ** 2)),
        ("pointer_path", "zeta conjugated", column(
            "timeseries.csv", "zeta_im", lambda c: -c["zeta_im"])),
        ("purity_range", "purity lowered by 0.02", column(
            "timeseries.csv", "purity", lambda c: c["purity"] - 0.02)),
    ],
    "g2s-correlations": [
        ("config_echo", "g2s.nu echoed as 0.31",
         json_field("manifest.json", ("config", "g2s.nu"), lambda v: 0.31)),
        ("mean_closed_form", "mean lagging one time sample", column(
            "mean_density.csv", "mean", lambda c: np.roll(c["mean"], 2))),
        ("pair_grid", "last (t1, t2) block dropped", rows("correlations.csv", lambda d: d[:-4])),
        ("pair_layout", "a1 labels swapped in the first block", rows(
            "correlations.csv", lambda d: np.vstack([d[[1, 0, 2, 3]], d[4:]]))),
        ("sum_rule", "statistical scaled by 1.1", column(
            "correlations.csv", "statistical", lambda c: 1.1 * c["statistical"])),
        ("marginals", "+1e-6 on (+,-) and -1e-6 on (-,+) at t1 < t2", _g2s_off_diagonal(
            lambda a1, a2: (a1 > a2) * 1.0 - (a1 < a2) * 1.0, lambda c: c["t1"] < c["t2"])),
        ("equal_time", "a1 a2 term off by 1e-6 at t1 = t2", _g2s_off_diagonal(
            lambda a1, a2: a1 * a2, lambda c: c["t1"] == c["t2"])),
        ("statistical_range", "a1 a2 lag term of statistical scaled by 1.3", column(
            "correlations.csv", "statistical", lambda c: c["statistical"] + 0.3 * 0.25
            * c["a1"] * c["a2"] * np.cos(NU_G2S * (c["t2"] - c["t1"])))),
    ],
    "density-suite": [
        ("config_echo", "density.L echoed as 5",
         json_field("manifest.json", ("config", "density.L"), lambda v: 5.0)),
        ("wigner_grid", "last Wigner row dropped", rows("wigner.csv", lambda d: d[:-1])),
        ("wigner_normalization", "W scaled by 1 + 1e-5", column(
            "wigner.csv", "w", lambda c: (1.0 + 1e-5) * c["w"])),
        ("wigner_x_marginal", "W shifted by one x cell", column(
            "wigner.csv", "w", lambda c: np.roll(c["w"], np.count_nonzero(c["x"] == c["x"][0])))),
        ("wigner_negative", "W clipped at 0", column(
            "wigner.csv", "w", lambda c: np.maximum(c["w"], 0.0))),
        ("smeared_mean", "smeared mean scaled by 1 + 1e-5", column(
            "static_mean.csv", "smeared_mean", lambda c: (1.0 + 1e-5) * c["smeared_mean"])),
        ("defect_decreases_with_dt", "defects at delta_t 0.2 and 0.1 swapped", column(
            "kolmogorov_defect.csv", "defect", lambda c: c["defect"][[0, 2, 1, 3]])),
        ("heavy_mass_defect", "heavy-mass defect set to 1e-9", column(
            "kolmogorov_defect.csv", "defect", lambda c: np.where(c["mass"] > 1e6, 1e-9, c["defect"]))),
    ],
}


def main() -> int:
    env = child_env()
    ok = True
    for workload, (experiment, inputs) in WORKLOADS.items():
        work = WORK / "selftest" / workload
        good = work / "good"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps(inputs))
        code, _, err = spawn([experiment, str(config), "1", str(good)], env)
        if code != 0:
            print(f"{workload}: run exited {code}: {err.strip()[-400:]}")
            return 1
        results = run_checks(experiment, good, inputs)
        names = [name for name, _, _ in results]
        for name, passed, detail in results:
            print(f"{workload:20s} {name:26s} {'pass' if passed else 'FAIL'}  {detail}")
            ok &= passed
        covered = [target for target, _, _ in CORRUPTIONS[experiment]]
        if sorted(covered) != sorted(names):
            print(f"{workload}: corruptions cover {sorted(covered)}, checks are {sorted(names)}")
            ok = False
        for target, what, corrupt in CORRUPTIONS[experiment]:
            bad = work / "bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            corrupt(bad)
            failed = [name for name, passed, _ in run_checks(experiment, bad, inputs) if not passed]
            caught = target in failed
            ok &= caught
            print(f"{workload:20s} {target:26s} {'caught' if caught else 'MISSED'}  "
                  f"{what}; failing: {', '.join(failed) or 'none'}")
    print("selftest", "passed" if ok else "FAILED", f"(artifacts under {WORK.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
