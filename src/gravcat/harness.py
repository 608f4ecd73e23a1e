"""Reproducible named experiments over the library, with manifests.

Each experiment takes a flat JSON config (namespaced keys like "jc.omega"),
a 64-bit seed, and an output directory; it emits CSV artifacts (17
significant digits, locale independent) plus a manifest echoing the fully
resolved config with SHA-256 checksums of every artifact.  Unknown config
keys abort before any computation.  Reruns with identical config and seed
produce byte-identical artifacts; wall-clock duration lives only in the
manifest and is excluded from checksummed content.

Exit-code policy (mapped by the CLI): ConfigError for malformed or unknown
configuration, RegimeError for parameter sets the numerics reject,
InternalCheckError for violated internal invariants.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import density as dn
from . import histories as hist
from . import jc
from . import measurement as ms
from . import two_state as ts
from .fock import FockSpace
from .states import CatState, GaussianState, SmearingParams
from .wigner import GridAliasingError, wigner_function


class GravcatError(Exception):
    """Base class for harness failures."""


class ConfigError(GravcatError):
    """Malformed, unknown, or out-of-range configuration."""


class RegimeError(GravcatError):
    """Parameters outside the numerically valid regime."""


class InternalCheckError(GravcatError):
    """An internal invariant failed while producing results."""


_REQUIRED = object()


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict
    seed: int
    output_dir: Path


@dataclass
class ResultManifest:
    experiment: str
    config: dict
    seed: int
    tool_version: str
    artifacts: list
    results: dict
    duration_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


# Rows formatted per write; bounds the Python objects alive at once.
_CSV_BLOCK_ROWS = 4096
# Bytes read per checksum update, so an artifact is never held whole.
_HASH_CHUNK_BYTES = 1 << 20


def write_csv(path: Path, header: list[str], columns) -> Path:
    """Write equal-length 1-D columns under `header`, one row per index.

    Integer and boolean columns print as %d, all others as %.17g; rows go
    out in fixed blocks so a large table never exists as one string.  In a
    block where at most half of a float column's bit patterns are distinct,
    each distinct pattern is formatted once and its text reused.
    """
    text = _csv_blocks(path, header, columns)
    with path.open("w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(text)
    return path


def _csv_blocks(path: Path, header: list[str], columns):
    """write_csv's rows of `columns`, as text blocks of _CSV_BLOCK_ROWS rows;
    the columns are checked before the first block is made."""
    columns = [np.asarray(c) for c in columns]
    n_rows = columns[0].size if columns else 0
    if len(columns) != len(header) or any(c.ndim != 1 or c.size != n_rows for c in columns):
        raise ValueError(f"need {len(header)} 1-D columns of equal length for {path.name}")
    return (_csv_block([c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])
            for lo in range(0, n_rows, _CSV_BLOCK_ROWS))


def _csv_block(columns) -> str:
    """One block of rows: %d for integer and boolean columns, %.17g for the
    others, with the text of a float column built by _repeated_text where
    it repeats enough."""
    slots, cells = [], []
    for c in columns:
        if c.dtype.kind in "biu":
            slots.append("%d")
            cells.append(c.tolist())
        elif (text := _repeated_text(c)) is not None:
            slots.append("%s")
            cells.append(text)
        else:
            slots.append("%.17g")
            cells.append(c.tolist())
    row = ",".join(slots) + "\n"
    return "".join(map(row.__mod__, zip(*cells)))


def _repeated_text(c: np.ndarray) -> list[str] | None:
    """The %.17g text of each value of a float column, each distinct bit
    pattern formatted once (so -0.0 and each NaN payload keep their own
    text), or None when more than half of the patterns are distinct."""
    if c.dtype.kind != "f" or c.dtype.itemsize not in (2, 4, 8):
        return None
    bits = c.view(f"u{c.dtype.itemsize}")
    ordered = np.sort(bits)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > c.size:
        return None
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = ["%.17g" % v for v in c[first].tolist()]
    return list(map(text.__getitem__, inverse.tolist()))


def _write_trajectories(path: Path, readings: np.ndarray) -> Path:
    """One (trajectory_id, step, reading) row per reading, as write_csv prints
    the whole table, made a block of whole trajectories at a time so the
    index columns never exist for the whole ensemble."""
    header = ["trajectory_id", "step", "reading"]
    count, length = readings.shape
    per_block = max(1, _CSV_BLOCK_ROWS // length)
    steps = np.arange(length)
    with path.open("w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, count, per_block):
            chunk = readings[lo:lo + per_block]
            ids = np.arange(lo, lo + chunk.shape[0])
            fh.writelines(_csv_blocks(path, header, [np.repeat(ids, length),
                                                     np.tile(steps, ids.size), chunk.ravel()]))
    return path


def _json_safe(obj):
    """Strict-JSON form: numpy scalars unwrapped, non-finite floats -> None."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


def write_json(path: Path, obj: dict) -> Path:
    text = json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="ascii")
    return path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK_BYTES)
    view = memoryview(buf)
    with path.open("rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            h.update(view[:size])
    return h.hexdigest()


def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of flat keys")
    return raw


def resolve_config(experiment: str, raw: dict, seed: int | None = None,
                   output_dir=None) -> ExperimentConfig:
    """Validate flat keys against the experiment schema and fill defaults."""
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(SCHEMAS)}"
        )
    schema = SCHEMAS[experiment]
    raw = dict(raw)
    raw_experiment = raw.pop("experiment", experiment)
    if raw_experiment != experiment:
        raise ConfigError(
            f"config names experiment {raw_experiment!r} but {experiment!r} was requested"
        )
    cfg_seed = raw.pop("seed", None)
    cfg_out = raw.pop("output_dir", None)
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    params = {}
    for key, (typ, default) in schema.items():
        if key in raw:
            params[key] = _coerce(key, typ, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"config key {key} is required for {experiment}")
        else:
            params[key] = default
    if seed is None:
        seed = cfg_seed if cfg_seed is not None else 0
    seed = _coerce("seed", int, seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    out = Path(output_dir if output_dir is not None else (cfg_out or "gravcat_out"))
    return ExperimentConfig(experiment=experiment, parameters=params, seed=seed,
                            output_dir=out)


# Values each schema type accepts; booleans are never numbers here.
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, str: str}


def _coerce(key: str, typ, value):
    """`value` as `typ`; a float is an integer only when whole (no truncation)."""
    if typ is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED[typ]):
        raise ConfigError(f"config key {key} has invalid value {value!r}")
    return typ(value)


def _domain(builder, *args, **kwargs):
    """Build a library value object, mapping its range checks to ConfigError."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# two-well correlation experiment


def _run_g2s(cfg: ExperimentConfig, outdir: Path):
    p = cfg.parameters
    if p["grid.t_count"] < 1:
        raise ConfigError("time grid is empty (grid.t_count must be >= 1)")
    if not -np.inf < p["grid.t_min"] < np.inf:
        raise ConfigError("grid.t_min must be finite")
    if not p["grid.t_min"] <= p["grid.t_max"] < np.inf:
        raise ConfigError("grid.t_max must be finite and >= grid.t_min")
    c_plus = complex(p["g2s.c_plus_re"], p["g2s.c_plus_im"])
    c_minus = complex(p["g2s.c_minus_re"], p["g2s.c_minus_im"])
    norm = np.hypot(abs(c_plus), abs(c_minus))
    if norm == 0.0:
        raise ConfigError("well amplitudes are both zero")
    state = _domain(ts.QubitState, c_plus / norm, c_minus / norm)
    params = _domain(ts.TunnelingParams, p["g2s.nu"], p["g2s.chi"])
    dens = _domain(ts.SmearedDensityParams, p["g2s.m"], p["g2s.ell"])
    times = np.linspace(p["grid.t_min"], p["grid.t_max"], p["grid.t_count"])

    # Rows: time-major, a = +1 before -1; correlations run over t1 <= t2
    # (row-major upper triangle) with (a1, a2) innermost.
    mean_a, mean_t = np.tile([1, -1], times.size), np.repeat(times, 2)
    mean = ts.mean_density(state, dens, mean_a, params, mean_t)
    i, j = np.triu_indices(times.size)
    a1, a2 = np.tile([1, 1, -1, -1], i.size), np.tile([1, -1, 1, -1], i.size)
    t1, t2 = np.repeat(times[i], 4), np.repeat(times[j], 4)
    q = ts.two_time_quantum_corr(state, dens, a1, a2, params, t1, t2)
    stat = ts.two_time_statistical_corr(state, dens, a1, a2, params, t1, t2)
    arts = [
        write_csv(outdir / "mean_density.csv", ["a", "t", "mean"], [mean_a, mean_t, mean]),
        write_csv(
            outdir / "correlations.csv",
            ["a1", "a2", "t1", "t2", "quantum_re", "quantum_im", "statistical"],
            [a1, a2, t1, t2, q.real, q.imag, stat],
        ),
    ]
    return arts, {"rows_mean": mean.size, "rows_corr": stat.size}


# ---------------------------------------------------------------------------
# force-trajectory experiment


def _fit_leading_window(name: str, t, y, stderr) -> float:
    """Exponential rate fitted to the leading samples with |y| > 2 stderr
    and the sign of the first; the window ends at the first that is not."""
    keep = (np.abs(y) > 2.0 * stderr) & (np.sign(y) == np.sign(y[0]))
    n = keep.size if keep.all() else int(np.argmin(keep))
    if n < 2:
        raise RegimeError(f"{name} fit window has {n} significant sample(s) of one sign; need 2")
    rate, _ = ms.fit_exponential_rate(t[:n], y[:n])
    return rate


def _run_force(cfg: ExperimentConfig, outdir: Path):
    p = cfg.parameters
    if p["force.count"] < 100:
        raise RegimeError("statistics mode needs force.count >= 100")
    sched = _domain(ms.MeasurementSchedule, tau=p["force.tau"],
                    n_steps=p["force.steps"], nu=p["force.nu"])
    f0 = p["force.f0"]
    if f0 is None:
        geo = _domain(ms.ProbeGeometry, G=p["probe.G"], m=p["probe.m"],
                      m0=p["probe.m0"], L=p["probe.L"], y=p["probe.y"])
        f0 = ms.force_amplitude(geo)
    elif not 0 < f0 < np.inf:
        raise ConfigError(f"force.f0 must be positive and finite, got {f0}")

    ensemble = ms.sample_trajectories(sched, p["force.count"], cfg.seed)
    max_lag = p["force.max_lag"] if p["force.max_lag"] > 0 else sched.n_steps
    stats = ms.estimate_force_statistics(ensemble, sched, f0, max_lag=max_lag)

    gamma_corr = _fit_leading_window("corr", stats.lag_time[1:], stats.corr[1:],
                                     stats.corr_stderr[1:])
    gamma_mean = _fit_leading_window("mean", stats.time, stats.mean, stats.mean_stderr)

    arts = [
        write_csv(
            outdir / "statistics.csv",
            ["lag_steps", "lag_time", "corr", "stderr"],
            [stats.lag_steps, stats.lag_time, stats.corr, stats.corr_stderr],
        ),
        write_csv(
            outdir / "mean_series.csv",
            ["step", "time", "mean", "stderr"],
            [np.arange(sched.n_steps + 1), stats.time, stats.mean, stats.mean_stderr],
        ),
        write_json(
            outdir / "metadata.json",
            {
                "nu": sched.nu,
                "tau": sched.tau,
                "N": sched.n_steps,
                "Gamma": sched.gamma,
                "f0": f0,
                "seed": cfg.seed,
                "count": p["force.count"],
                "estimator": stats.metadata,
            },
        ),
    ]
    if p["force.dump_trajectories"]:
        arts.append(_write_trajectories(outdir / "trajectories.csv", ensemble.readings))
    results = {
        "f0": f0,
        "gamma_theory": sched.gamma,
        "fitted_gamma_corr": gamma_corr,
        "fitted_gamma_mean": gamma_mean,
    }
    return arts, results


# ---------------------------------------------------------------------------
# oscillator-probe experiment


def _run_jc(cfg: ExperimentConfig, outdir: Path):
    p = cfg.parameters
    omega = p["jc.omega"]
    if not omega > 0:
        raise ConfigError("jc.omega must be positive")
    dim = p["jc.dim"]
    if dim < 2:
        raise ConfigError("jc.dim must be at least 2")
    params = _domain(jc.JCParams, nu=p["jc.nu_over_omega"] * omega, omega=omega,
                     g=p["jc.g_over_omega"] * omega)
    # The pointer orbit reaches 2 |zeta_0|; demand headroom in the cutoff.
    max_reach = 2.0 * abs(params.zeta0)
    if max_reach**2 > dim / 4.0:
        raise RegimeError(
            f"Fock cutoff {dim} inadequate for pointer reach |zeta| = {max_reach:.3g} "
            f"(need |zeta|^2 <= dim/4)"
        )
    space = FockSpace(dim)
    if p["jc.samples"] < 2:
        raise ConfigError("jc.samples must be at least 2")
    if not 0 < p["jc.nu_t_max"] < np.inf:
        raise ConfigError("jc.nu_t_max must be positive and finite")
    if params.nu > 0:
        t_max = p["jc.nu_t_max"] / params.nu
    else:
        t_max = p["jc.nu_t_max"] / omega
    times = np.linspace(0.0, t_max, p["jc.samples"])

    initial = jc.pointer_state(params, space, +1)
    target = jc.pointer_state(params, space, -1)
    states = jc.evolve_series(params, space, initial, times)
    tvec = target.as_vector()
    p_exact = np.array([abs(np.vdot(tvec, st.as_vector())) ** 2 for st in states])
    ivec = initial.as_vector()
    import warnings as _warnings

    p_pert = np.empty_like(p_exact)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", jc.RegimeWarning)
        for k, t in enumerate(times):
            u = jc.adiabatic_propagator(params, space, t) @ jc.perturbative_propagator(
                params, space, t
            )
            p_pert[k] = abs(np.vdot(tvec, u @ ivec)) ** 2
    p_rabi = jc.rabi_probability(params, times)
    purities = np.array([jc.purity(jc.reduced_oscillator_state(st)) for st in states])
    zeta = jc.pointer_path(params, times)

    report = jc.distinguishability(params)
    arts = [
        write_csv(
            outdir / "timeseries.csv",
            ["t", "p_exact", "p_perturbative", "p_rabi", "purity", "zeta_re", "zeta_im"],
            [times, p_exact, p_pert, p_rabi, purities, zeta.real, zeta.imag],
        ),
        write_json(
            outdir / "metadata.json",
            {
                "nu": params.nu,
                "omega": params.omega,
                "g": params.g,
                "dim": dim,
                "samples": int(times.size),
                "deterministic": True,  # no randomness enters this experiment
            },
        ),
        write_json(
            outdir / "distinguishability.json",
            {
                "overlap": report.overlap,
                "probe_ok": report.probe_ok,
                "threshold": report.threshold,
                "omega_cubed": report.omega_cubed,
                "coupling_scale": report.coupling_scale,
                "zeta0": params.zeta0,
            },
        ),
    ]
    results = {
        "max_abs_dev_exact_vs_rabi": float(np.max(np.abs(p_exact - p_rabi))),
        "max_transition_probability": float(np.max(p_exact)),
    }
    return arts, results


# ---------------------------------------------------------------------------
# mass-density experiment


def _density_state(p):
    kind = p["density.state"]
    if kind == "gaussian":
        return _domain(GaussianState, p["density.sigma"])
    if kind == "cat":
        return _domain(CatState, p["density.sigma"], (p["density.L"], 0.0, 0.0))
    raise ConfigError(f"density.state must be 'gaussian' or 'cat', got {kind!r}")


def _run_density(cfg: ExperimentConfig, outdir: Path):
    p = cfg.parameters
    state = _density_state(p)
    smear = _domain(SmearingParams, p["density.s_x"])
    m = p["density.m"]
    if not 0 < m < np.inf:
        raise ConfigError(f"density.m must be positive and finite, got {m}")
    axis_state = state.axis_state(0)

    try:
        grid = wigner_function(axis_state, x_axis=None, p_axis=None)
    except GridAliasingError as exc:
        raise RegimeError(str(exc)) from exc

    arts = [
        write_csv(outdir / "wigner.csv", ["x", "p", "w"],
                  [np.repeat(grid.x, grid.p.size), np.tile(grid.p, grid.x.size),
                   grid.values.ravel()]),
        write_json(
            outdir / "wigner_meta.json",
            {
                "columns": ["x", "p", "w"],
                "x_min": float(grid.x[0]),
                "x_max": float(grid.x[-1]),
                "x_count": int(grid.x.size),
                "p_min": float(grid.p[0]),
                "p_max": float(grid.p[-1]),
                "p_count": int(grid.p.size),
                "normalization": grid.meta.get("normalization"),
                "units": "natural (hbar = 1); W normalized to dx dp / (2 pi)",
                "state": {
                    "kind": p["density.state"],
                    "sigma": p["density.sigma"],
                    "separation": p["density.L"] if p["density.state"] == "cat" else 0.0,
                },
                "sampling_width": p["density.s_x"],
                "mass": m,
            },
        ),
    ]

    # Static-limit mean profile along the axis vs m |psi|^2.
    xs = np.linspace(grid.x[0], grid.x[-1], 101)
    exact = m * np.abs(axis_state.psi(xs)) ** 2
    arts.append(write_csv(outdir / "static_mean.csv", ["x", "smeared_mean", "density_exact"],
                          [xs, dn.smeared_mean_phase_space(grid, xs, 0.0, m), exact]))

    # Relative fluctuation profile (3D states, both exponent conventions);
    # points where the density vanishes have no ratio and are left out.
    profile = []
    for x in xs:
        try:
            profile.append([x] + [dn.fluctuation_ratio(state, smear, (float(x), 0.0, 0.0), m,
                                                       density_exponent=k) for k in (2, 3)])
        except ValueError:
            continue
    arts.append(write_csv(outdir / "fluctuation_profile.csv",
                          ["x", "c_ratio_quadratic", "c_ratio_cubic"],
                          np.reshape(profile, (-1, 3)).T))

    # Two-point correlators at +/- dr/2: delta-limit vs full quadrature at a
    # few offsets; dict.fromkeys drops repeats (10 s_x = 0.5 at s_x = 0.05).
    t1, t2 = 0.1, 0.35
    r1 = 0.5 * np.array(list(dict.fromkeys((10.0 * smear.s_x, 20.0 * smear.s_x, 0.5))))
    delta = [dn.smeared_corr_phase_space(grid, smear, r, t1, -r, t2, m, method="delta")
             for r in r1]
    quad = [dn.smeared_corr_quadrature(grid, smear, r, t1, -r, t2, m) for r in r1]
    arts.append(write_csv(
        outdir / "correlators.csv",
        ["r", "t", "r2", "t2", "mean_delta", "corr_delta", "corr_quadrature"],
        [r1, np.full(r1.size, t1), -r1, np.full(r1.size, t2), *np.transpose(delta), quad],
    ))

    # Marginalization defect of two-time sampling records: generic mass vs
    # quasi-commuting heavy mass.
    sam = SmearingParams(max(p["density.s_x"], p["density.sigma"] / 4.0))
    r1_comb = hist.partition_points(0.0, 6.0 * p["density.sigma"], sam.s_x)
    dts, masses = (0.4, 0.2, 0.1, 0.2), (m, m, m, 1e14)
    try:
        defects = [hist.additivity_defect(axis_state, sam, 0.1, 0.1 + dt, r1_comb,
                                          [0.0, p["density.sigma"]], mass)
                   for dt, mass in zip(dts, masses)]
    except GridAliasingError as exc:
        raise RegimeError(str(exc)) from exc
    arts.append(write_csv(outdir / "kolmogorov_defect.csv", ["delta_t", "mass", "defect"],
                          [dts, masses, defects]))
    results = {"wigner_normalization": grid.meta.get("normalization")}
    return arts, results


SCHEMAS = {
    "g2s-correlations": {
        "g2s.nu": (float, _REQUIRED),
        "g2s.chi": (float, 0.0),
        "g2s.c_plus_re": (float, 1.0),
        "g2s.c_plus_im": (float, 0.0),
        "g2s.c_minus_re": (float, 0.0),
        "g2s.c_minus_im": (float, 0.0),
        "g2s.m": (float, 1.0),
        "g2s.ell": (float, 1.0),
        "grid.t_min": (float, 0.0),
        "grid.t_max": (float, _REQUIRED),
        "grid.t_count": (int, _REQUIRED),
    },
    "force-trajectories": {
        "force.nu": (float, _REQUIRED),
        "force.tau": (float, _REQUIRED),
        "force.steps": (int, _REQUIRED),
        "force.count": (int, _REQUIRED),
        "force.f0": (float, None),
        "force.max_lag": (int, 0),
        "force.dump_trajectories": (int, 0),
        "probe.G": (float, 1.0),
        "probe.m": (float, 1.0),
        "probe.m0": (float, 1.0),
        "probe.L": (float, 2.0),
        "probe.y": (float, 0.0),
    },
    "jc-suite": {
        "jc.omega": (float, 1.0),
        "jc.g_over_omega": (float, 2.0),
        "jc.nu_over_omega": (float, 0.01),
        "jc.dim": (int, 64),
        "jc.nu_t_max": (float, float(np.pi)),
        "jc.samples": (int, 61),
    },
    "density-suite": {
        "density.state": (str, "gaussian"),
        "density.sigma": (float, 1.0),
        "density.L": (float, 6.0),
        "density.s_x": (float, 0.05),
        "density.m": (float, 1.0),
    },
}

_RUNNERS = {
    "g2s-correlations": _run_g2s,
    "force-trajectories": _run_force,
    "jc-suite": _run_jc,
    "density-suite": _run_density,
}


def run_experiment(cfg: ExperimentConfig) -> ResultManifest:
    """Run one named experiment, write artifacts and manifest.json."""
    runner = _RUNNERS[cfg.experiment]
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    artifacts, results = runner(cfg, outdir)
    duration = time.perf_counter() - start

    entries = []
    for path in artifacts:
        digest = sha256_file(path)
        entries.append({"name": path.name, "sha256": digest, "bytes": path.stat().st_size})
        if sha256_file(path) != digest:
            raise InternalCheckError(f"checksum of {path} changed during manifest build")

    manifest = ResultManifest(
        experiment=cfg.experiment,
        config=dict(sorted(cfg.parameters.items())),
        seed=cfg.seed,
        tool_version=__version__,
        artifacts=entries,
        results=results,
        duration_seconds=duration,
    )
    write_json(outdir / "manifest.json", manifest.to_dict())
    return manifest
