"""Reproducible named experiments over the library, with manifests.

Each experiment takes a flat JSON config (namespaced keys like "jc.omega"),
a 64-bit seed, and an output directory; it emits CSV artifacts (17
significant digits, locale independent) plus a manifest echoing the fully
resolved config with SHA-256 checksums of every artifact.  Unknown config
keys abort before any computation.  Reruns with identical config and seed
produce byte-identical artifacts; wall-clock duration lives only in the
manifest and is excluded from checksummed content.  Each runner imports
the library modules it uses, so a run loads only its own experiment's.

A runner returns its artifacts by name and never sees a path;
run_experiment alone writes them.  A rejected run (exit 2 or 3) touches
nothing: into a new path it creates no directory.  A run that fails later
leaves the directory's files as they were.  A successful rerun replaces
the files it writes, manifest.json last, and deletes those the previous
manifest lists that it did not write; files no manifest lists are kept.

Exit-code policy (mapped by the CLI): ConfigError for malformed or unknown
configuration, RegimeError for parameter sets the numerics reject,
InternalCheckError for violated internal invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
import shutil
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__


class GravcatError(Exception):
    """Base class for harness failures."""


class ConfigError(GravcatError):
    """Malformed, unknown, or out-of-range configuration."""


class RegimeError(GravcatError):
    """Parameters outside the numerically valid regime."""


class InternalCheckError(GravcatError):
    """An internal invariant failed while producing results."""


_REQUIRED = object()
# Largest max|E| t_max jc-suite accepts: E and t carry relative rounding
# 2^-53, so the phase E t is then off by up to about 2^-10 rad.
_MAX_JC_PHASE = 2.0**43
# Most rows of correlations.csv, 2 t_count (t_count + 1): about 100 GB of CSV.
_MAX_G2S_ROWS = 1 << 30


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict
    seed: int
    output_dir: Path


class Artifact(type(Path())):
    """A written file's path; `sha256` is the hex digest of the bytes written."""


# Bytes of word slots per block (at most 7 words a float cell, 3 an integer
# one), so a large table never exists as one array or string.  Rendering a
# g2s-grid table then peaks at 0.9 MB (tracemalloc), against 1.6 MB for the
# former 4096-row text blocks; larger blocks were no faster.
_CSV_BLOCK_BYTES = 1 << 18
# Bytes read per checksum update when an artifact is verified, so it is
# never held whole (a 1 MiB buffer raised a jc-suite run's peak).
_HASH_CHUNK_BYTES = 1 << 16
_P10 = 10 ** np.arange(18, dtype=np.int64)


def write_csv(path: Path, header: list[str], blocks) -> Artifact:
    """Write under `header` the rows of each block of equal-length 1-D real
    columns `blocks` yields; a whole table is the one block `[columns]`.
    Each block is checked as it is drawn, then rendered _block_rows(its
    dtypes) rows at a time, hashed and written before the next is drawn.

    Integer and boolean columns print as %d, all others as %.17g, byte for
    byte as Python's % prints them.  Rows are rendered by numpy into fixed
    8-byte word slots, NUL-padded, and the NULs are dropped before they are
    written.  The 17 digits of a float come from a double-double product
    (see _float_digits); a value that could round either way, and every
    value the product does not cover, is printed by Python's % instead.
    """
    buf = bytearray(_CSV_BLOCK_BYTES)

    def chunks():  # each row starts with the newline that ends the line before it
        yield ",".join(header).encode("ascii")
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            n_rows = columns[0].size if columns else 0
            if len(columns) != len(header) or any(c.ndim != 1 or c.size != n_rows
                                                  or c.dtype.kind not in "biuf" for c in columns):
                raise ValueError(f"need {len(header)} 1-D real columns of equal length "
                                 f"for {path.name}")
            rows = _block_rows([c.dtype for c in columns])
            for lo in range(0, n_rows, rows):
                yield _render_rows([c[lo : lo + rows] for c in columns], buf)
        yield b"\n"

    return _write_hashed(path, chunks())


def _block_rows(dtypes) -> int:
    """Rows per block: a float cell takes at most 7 words, an integer one 3."""
    words = sum(3 if d.kind in "biu" else 7 for d in dtypes)
    return max(1, _CSV_BLOCK_BYTES // (8 * max(words, 1)))


def _write_hashed(path: Path, chunks) -> Artifact:
    """Write the byte strings `chunks` yields to `path`, feeding each to one
    SHA-256 as it is written."""
    path, digest = Artifact(path), hashlib.sha256()
    with path.open("wb") as fh:
        for data in chunks:
            digest.update(data)
            fh.write(data)
            del data  # not alive while the next block renders
    path.sha256 = digest.hexdigest()
    return path


def _render_rows(columns, buf: bytearray) -> bytes:
    """ASCII rows of equal-length columns, laid out in `buf` as 8-byte words
    (cell by cell, NUL-padded) and returned without the NULs.  The columns
    of one render type are rendered as one array: on a g2s-grid table that
    takes a third of the writer's time off, against a column at a time."""
    m = columns[0].size
    cells = [None] * len(columns)
    for kind in (np.float64, np.int64, np.uint64):
        group = [i for i, c in enumerate(columns) if _render_type(c) is kind]
        if group:
            words = _cell_words(np.concatenate([columns[i] for i in group], dtype=kind))
            for g, i in enumerate(group):
                cells[i] = [w[g * m:(g + 1) * m] for w in words]
                cells[i][0] |= np.uint64(ord("," if i else "\n"))
    words = np.frombuffer(buf, "<u8", m * sum(map(len, cells))).reshape(m, -1)
    for j, w in enumerate([w for cell in cells for w in cell]):
        words[:, j] = w
    del cells, w
    return bytearray(words).translate(None, b"\0")


def _render_type(c):
    """The dtype a column is rendered in: every float and integer type fits
    float64 or int64 exactly, except uint64."""
    if c.dtype.kind == "f":
        return np.float64
    return np.uint64 if c.dtype == np.uint64 else np.int64


def _lookup_tables():
    """The renderer's lookup tables, built once at import.

    hi, hh, hl, lo: 10^p = hi + lo for p in [-240, 270], hi correctly
    rounded and lo the rounded rest (Python's integer true division rounds
    correctly), hi split for _scaled.  quad: the ASCII of 0000-9999.  sig:
    where a 4-digit group j of a fraction ends, 4 j + its digits through the
    last nonzero one (0 for 0000).  Per decade k, at k + 400: split and
    scale (10^s and 10^(17 - s): a rounded value is D // 10^s before the
    point and D % 10^s after it), nd (digits before the point), lead (the
    word ".", ".0", ".00" or ".000") and exp (the word "e+XX", 0 in fixed
    notation).  head, frac: word masks by digit count.
    """
    t = types.SimpleNamespace()
    hi, lo = [], []
    for p in range(-240, 271):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    t.hi, t.lo = np.array(hi), np.array(lo)
    t.hh, t.hl = _split(t.hi)
    pair = np.arange(100)
    text = (pair // 10 + 48 | (pair % 10 + 48) << 8).astype(np.uint64)
    t.quad = (text[:, None] | text << 16).ravel()
    sig = np.where(pair % 10 > 0, 2, np.where(pair > 0, 1, 0)).astype(np.uint8)  # "ab"
    sig = np.where(pair > 0, 2 + sig, sig[:, None]).ravel()
    t.sig = np.where(sig > 0, sig + np.arange(0, 20, 4, dtype=np.uint8)[:, None], 0)
    k = np.arange(-400, 400)
    sci = (k < -4) | (k > 16)
    s = np.where(sci, 16, np.clip(16 - k, 0, 17))
    t.split, t.scale = _P10[s], _P10[17 - s]
    t.nd = np.where(sci | (k < 0), 1, k + 1)
    t.lead = np.array([int.from_bytes(b".000"[:z], "little")
                       for z in np.where(sci | (k >= 0), 1, -k).tolist()], np.uint64)
    t.exp = np.array([int.from_bytes(b"e%+03d" % e, "little") * f
                      for e, f in zip(k.tolist(), sci.tolist())], np.uint64)
    keep = np.array([2 ** (8 * n) - 1 for n in range(9)], np.uint64)  # low n bytes
    n = np.arange(24)
    t.head = ~keep[np.clip(8 * np.arange(3)[:, None] + 8 - n, 0, 8)]
    t.frac = keep[np.clip(n[:18] - np.array([[0], [4], [12]]), 0, [[4], [8], [8]])]
    t.frac[0] = t.frac[0] << 32 | keep[4] * (n[:18] > 0)
    return t


def _split(a):
    """Veltkamp split: a = high + low, each with at most 26 significant bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


# Built at import, not on first use: built mid-run they land among the
# run's own arrays in the malloc heap, and a density-suite run then
# peaked 2 MB (4%) higher.
_TABLES = _lookup_tables()


def _scaled(a, k):
    """a 10^(16 - k) as a float product P, exact as an integer above 2^53,
    and its error (Dekker's TwoProduct) plus a lo, good to about 1e-14."""
    t, i = _TABLES, 256 - k
    prod = a * t.hi[i]
    ah, al = _split(a)
    hh, hl = t.hh[i], t.hl[i]
    return prod, ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * t.lo[i]


def _float_digits(x):
    """(D, k, fallback) for float64 x: |x| rounds to D 10^(k - 16) with D
    in [10^16, 10^17] (D = k = 0 at zero).  The fast path covers 1e-250 <=
    |x| <= 1e250; fallback indexes the values left to Python's %: those
    outside it, NaN, and any whose product lies within 1e-6 of a rounding
    tie, far above the product's error."""
    a = np.abs(x)
    fast = (a >= 1e-250) & (a <= 1e250)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    prod, rest = _scaled(a, k)
    # log10 may miss the decade by one; correct it from the unrounded product,
    # which lies within 20 of prod
    redo = np.flatnonzero((prod < 1e16 + 1e3) | (prod > 1e17 - 1e3))
    step = ((prod[redo] - 1e17) + rest[redo] >= 0).astype(np.int64)
    step -= (prod[redo] - 1e16) + rest[redo] < 0
    redo, step = redo[step != 0], step[step != 0]
    if redo.size:
        k[redo] += step
        prod[redo], rest[redo] = _scaled(a[redo], k[redo])
    near = np.floor(rest + 0.5)
    digits = prod.astype(np.int64) + near.astype(np.int64)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    k[carry] += 1
    odd = np.flatnonzero(~fast)
    digits[odd[x[odd] == 0]] = 0
    tie = np.flatnonzero(np.abs(rest - near) > 0.5 - 1e-6)
    return digits, k, np.concatenate([odd[x[odd] != 0], tie])


def _float_parts(x):
    """(whole, frac, k + 400, fallback) of _float_digits: the digits before
    the point, and those after it as a left-aligned 17-digit integer."""
    t = _TABLES
    digits, k, fallback = _float_digits(x)
    k += 400
    split = t.split[k]
    whole = digits // split
    digits -= whole * split
    digits *= t.scale[k]
    return whole, digits, k, fallback


def _ascii8(n):
    """The 8 ASCII digits of n < 10^8, zero-padded, first digit in the low byte."""
    quad = _TABLES.quad
    high = n // 10000
    return quad[high] | quad[n - 10000 * high] << 32


def _cell_words(c) -> list:
    """The cells of a float64, int64 or uint64 array as 8-byte words: [NUL
    for the separator, sign, up to 6 digits], 8 more digits per further
    word before the point, then ".000" with up to 4 digits, 8 digits and 5
    digits of the fraction, then the exponent; NULs are padding.  Every
    word is kept, even one that is NUL in every cell: the first word's low
    byte, NUL in every cell Python's % prints too, takes the separator."""
    t = _TABLES
    if c.dtype.kind != "f":
        fallback = np.flatnonzero((c >= 10**17) | (c <= -10**17))
        whole = np.abs(c.astype(np.int64))
        whole[fallback] = 0
        nd = np.maximum(np.searchsorted(_P10, whole, side="right"), 1)
        neg, fmt = c < 0, b"%d"
    else:
        whole, frac, k, fallback = _float_parts(c)
        nd = t.nd[k]
        neg, fmt = np.signbit(c), b"%.17g"
    extra = (int(nd.max(initial=1)) + 1) // 8  # words after the first
    words = [_ascii8(whole // 10 ** (8 * extra)) & t.head[extra][nd]]
    words += [_ascii8(whole // 10 ** (8 * i) % 10**8) & t.head[i][nd]
              for i in range(extra - 1, -1, -1)]
    words[0] |= neg * np.uint64(ord("-") << 8)
    if fmt == b"%.17g":
        groups = []
        for scale in (10**13, 10**9, 10**5, 10, 1):
            groups.append(frac // scale)
            frac -= groups[-1] * scale
        groups[-1] = groups[-1] * 1000
        nsig = t.sig[0][groups[0]]
        for j in range(1, 5):
            np.maximum(nsig, t.sig[j][groups[j]], out=nsig)
        quad = [t.quad[g] for g in groups]
        words += [(quad[0] << 32 | t.lead[k]) & t.frac[0][nsig],
                  (quad[1] | quad[2] << 32) & t.frac[1][nsig],
                  (quad[3] | quad[4] << 32) & t.frac[2][nsig],
                  t.exp[k]]
    if fallback.size:
        text = [b"\0" + fmt % v for v in c[fallback].tolist()]
        width = max(len(words), -(-max(map(len, text)) // 8))
        words += [np.zeros(c.size, np.uint64) for _ in range(width - len(words))]
        text = np.frombuffer(b"".join(s.ljust(8 * width, b"\0") for s in text), "<u8")
        for j, w in enumerate(words):
            w[fallback] = text[j::width]
    return words


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


def write_json(path: Path, obj: dict) -> Artifact:
    text = json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False)
    return _write_hashed(path, [(text + "\n").encode("ascii")])


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
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of flat keys")
    return raw


def resolve_config(experiment: str, raw: dict, seed: int | None = None,
                   output_dir=None) -> ExperimentConfig:
    """Validate flat keys against the experiment schema and fill defaults."""
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {sorted(SCHEMAS)}")
    schema = SCHEMAS[experiment]
    raw = dict(raw)
    raw_experiment = raw.pop("experiment", experiment)
    if raw_experiment != experiment:
        raise ConfigError(f"config names experiment {raw_experiment!r} "
                          f"but {experiment!r} was requested")
    cfg_seed, cfg_out = raw.pop("seed", None), raw.pop("output_dir", None)
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    params = {}
    for key, (typ, default, domain) in schema.items():
        if key in raw:
            params[key] = _coerce(key, typ, domain, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"config key {key} is required for {experiment}")
        else:
            params[key] = default
    if seed is None:
        seed = cfg_seed if cfg_seed is not None else 0
    seed = _coerce("seed", int, ">= 0", seed)
    out = Path(output_dir if output_dir is not None else (cfg_out or "gravcat_out"))
    return ExperimentConfig(experiment, params, seed, out)


def _coerce(key: str, typ, domain, value):
    """`value` as `typ` (booleans are never numbers), checked against its
    SCHEMAS `domain`; a float is an integer only when whole (no truncation)."""
    if typ is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    accepted = {int: numbers.Integral, float: numbers.Real, str: str}[typ]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key} has invalid value {_show(value)}")
    value = typ(value)
    if isinstance(domain, tuple):
        ok, domain = value in domain, f"one of {domain}"
    else:
        domain = f">= {domain}" if isinstance(domain, int) else domain
        ok = abs(value) < math.inf and (value > 0 if domain == "> 0" else
                                        domain == "finite" or value >= int(domain[3:]))
    if not ok:
        raise ConfigError(f"config key {key} must be {domain}, got {_show(value)}")
    return value


def _show(value) -> str:
    """repr(value), but an integer past 1e15 as %.3e of its exact value, so
    that no message spells out hundreds of digits."""
    if isinstance(value, int) and abs(value) > 10**15:
        from decimal import Decimal
        return f"{Decimal(value):.3e}"
    return repr(value)


def _domain(builder, *args, **kwargs):
    """Build a library value object, mapping its range checks to ConfigError;
    for inputs that can fail them although each key is in its domain."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require_scales(message: str, scales, normal=False):
    """RegimeError(message) unless each scale scales() returns, float errors
    ignored, is finite, and with `normal` a normal float (not 0, not subnormal)."""
    with np.errstate(all="ignore"):
        values = scales()
    low = np.finfo(float).tiny if normal else 0.0
    if not all(low <= abs(v) < np.inf for v in values):
        raise RegimeError(message)


# ---------------------------------------------------------------------------
# two-well correlation experiment


def _run_g2s(cfg: ExperimentConfig):
    """Mean well densities over the time grid, and both two-time correlations
    over its upper triangle, drawn by the writer one run of (t1, t2) pairs
    at a time (a closed-form call per writer block cost a fifth more CPU
    than one per eight), so memory does not grow with grid.t_count."""
    from . import two_state as ts

    p = cfg.parameters
    t_min, t_max = p["grid.t_min"], p["grid.t_max"]
    if not t_min <= t_max:
        raise ConfigError(f"grid.t_max must be >= grid.t_min, got {t_max!r} < {t_min!r}")
    c_plus = complex(p["g2s.c_plus_re"], p["g2s.c_plus_im"])
    c_minus = complex(p["g2s.c_minus_re"], p["g2s.c_minus_im"])
    norm = np.hypot(abs(c_plus), abs(c_minus))
    if norm == 0.0:
        raise ConfigError("well amplitudes are both zero")
    state = _domain(ts.QubitState, c_plus / norm, c_minus / norm)
    params = ts.TunnelingParams(p["g2s.nu"], p["g2s.chi"])
    dens = ts.SmearedDensityParams(p["g2s.m"], p["g2s.ell"])
    # two_state scales by m / (2 ell^3) and m^2 / (4 ell^6) in Python floats,
    # whose ** raises on overflow: each power and scale must be a normal float.
    m, ell, nu = np.float64(dens.m), np.float64(dens.ell), params.nu
    _require_scales(f"g2s.m = {m:.3g}, g2s.ell = {ell:.3g}: m^2, ell^6, m / ell^3 or "
                    "m^2 / ell^6 is not a normal float",
                    lambda: (m**2, ell**6, m / (2.0 * ell**3), m**2 / (4.0 * ell**6)), normal=True)
    # the closed forms take cos and sin of nu t and of nu (t2 - t1)
    _require_scales(f"grid.t_min = {t_min:.3g}, grid.t_max = {t_max:.3g}, g2s.nu = {nu:.3g}: "
                    "t_max - t_min or nu t is not finite",
                    lambda: (t_max - t_min, nu * (t_max - t_min), nu * max(-t_min, t_max)))
    t_count = p["grid.t_count"]
    if 2 * t_count * (t_count + 1) > _MAX_G2S_ROWS:  # t_count <= 23169
        raise RegimeError(f"grid.t_count: 2 t_count (t_count + 1) rows exceed {_MAX_G2S_ROWS}")
    times = np.linspace(t_min, t_max, t_count)

    # Rows: time-major, a = +1 before -1; correlations run over t1 <= t2
    # (row-major upper triangle) with (a1, a2) innermost.
    mean_a, mean_t = np.tile([1, -1], times.size), np.repeat(times, 2)
    mean = ts.mean_density(state, dens, mean_a, params, mean_t)
    starts = np.cumsum(np.r_[0, np.arange(times.size, 1, -1)])  # pair index of (i, i)
    pairs = int(starts[-1]) + 1
    a1, a2 = np.array([[1, 1, -1, -1]]), np.array([[1, -1, 1, -1]])
    per_call = 2 * _block_rows([a1.dtype] * 2 + [times.dtype] * 5)  # 8 writer blocks

    def blocks():
        # pairs k at (i, j), i the last row starting at or below k; each
        # pair's closed forms are evaluated once, the labels broadcast
        for lo in range(0, pairs, per_call):
            k = np.arange(lo, min(lo + per_call, pairs))
            i = np.searchsorted(starts, k, side="right") - 1
            t1, t2 = times[i][:, None], times[i + k - starts[i]][:, None]
            q = ts.two_time_quantum_corr(state, dens, a1, a2, params, t1, t2)
            stat = ts.two_time_statistical_corr(state, dens, a1, a2, params, t1, t2)
            yield [np.tile(a1[0], k.size), np.tile(a2[0], k.size), np.repeat(t1, 4),
                   np.repeat(t2, 4), q.real.ravel(), q.imag.ravel(), stat.ravel()]

    artifacts = {
        "mean_density.csv": (["a", "t", "mean"], [[mean_a, mean_t, mean]]),
        "correlations.csv": (["a1", "a2", "t1", "t2", "quantum_re", "quantum_im", "statistical"],
                             blocks()),
    }
    return artifacts, {"rows_mean": mean.size, "rows_corr": 4 * pairs}


# ---------------------------------------------------------------------------
# force-trajectory experiment


def _fit_leading_window(name: str, t, y, stderr) -> float:
    """Exponential rate fitted to the leading samples with |y| > 2 stderr
    and the sign of the first; the window ends at the first that is not."""
    from . import measurement as ms

    keep = (np.abs(y) > 2.0 * stderr) & (np.sign(y) == np.sign(y[0]))
    n = keep.size if keep.all() else int(np.argmin(keep))
    if n < 2:
        raise RegimeError(f"{name} fit window has {n} significant sample(s) of one sign; need 2")
    try:
        rate, _ = ms.fit_exponential_rate(t[:n], y[:n])
    except ValueError as exc:
        raise RegimeError(f"{name} fit window: {exc}") from exc
    return rate


def _run_force(cfg: ExperimentConfig):
    from . import measurement as ms

    p = cfg.parameters
    if p["force.count"] < 100:
        raise RegimeError("statistics mode needs force.count >= 100")
    sched = ms.MeasurementSchedule(tau=p["force.tau"], n_steps=p["force.steps"], nu=p["force.nu"])
    nu, tau, n = sched.nu, sched.tau, sched.n_steps
    count = p["force.count"]  # the estimator's integer lag sums are exact below 2^53
    if count * (n + 1) ** 2 > 2**53:
        raise RegimeError(f"force.count = {_show(count)}, force.steps = {_show(n)}: "
                          "count (N+1)^2 exceeds 2^53, past exact float lag sums")
    # the sampler takes sin(nu tau / 2), the fit Gamma = nu^2 tau / 2, readings run to N tau
    _require_scales(f"force.nu = {nu:.3g}, force.tau = {tau:.3g}, force.steps = {_show(n)}: "
                    "nu tau, nu^2 tau / 2 or N tau is not finite",
                    lambda: (nu * tau, nu * nu * tau / 2.0, tau * n))
    f0 = p["force.f0"]
    if f0 is None:
        f0 = ms.force_amplitude(ms.ProbeGeometry(G=p["probe.G"], m=p["probe.m"],
                                                 m0=p["probe.m0"], L=p["probe.L"], y=p["probe.y"]))
    # The estimator scales by f0 and f0^2; f0^2 normal implies f0 normal.
    _require_scales(f"force amplitude f0 = {f0:.3g}: f0^2 is not a normal float",
                    lambda: (f0 * f0,), normal=True)

    max_lag = p["force.max_lag"] if p["force.max_lag"] > 0 else sched.n_steps
    stats = ms.estimate_force_statistics(ms.sample_trajectories(sched, count, cfg.seed), sched,
                                         f0, max_lag=max_lag)

    gamma_corr = _fit_leading_window("corr", stats.lag_time[1:], stats.corr[1:],
                                     stats.corr_stderr[1:])
    gamma_mean = _fit_leading_window("mean", stats.time, stats.mean, stats.mean_stderr)

    artifacts = {
        "statistics.csv": (["lag_steps", "lag_time", "corr", "stderr"],
                           [[stats.lag_steps, stats.lag_time, stats.corr, stats.corr_stderr]]),
        "mean_series.csv": (["step", "time", "mean", "stderr"],
                            [[np.arange(n + 1), stats.time, stats.mean, stats.mean_stderr]]),
        "metadata.json": {"nu": nu, "tau": tau, "N": n, "Gamma": sched.gamma, "f0": f0,
                          "seed": cfg.seed, "count": count, "estimator": stats.metadata},
    }

    def trajectories(start=0):  # start: table index of the block's first reading
        # one (trajectory_id, step, reading) row per reading; one block of
        # records and one writer block of index columns exist at a time
        rows = _block_rows([np.dtype(np.int64)] * 3)
        for block in ms.sample_trajectories(sched, count, cfg.seed):
            flat = ms.unpack_readings(block, n + 1).reshape(-1)
            for lo in range(0, flat.size, rows):
                index = np.arange(start + lo, start + min(lo + rows, flat.size), dtype=np.int64)
                yield [index // (n + 1), index % (n + 1), flat[lo : lo + rows]]
            start += flat.size

    if p["force.dump_trajectories"]:
        artifacts["trajectories.csv"] = (["trajectory_id", "step", "reading"], trajectories())
    return artifacts, {"f0": f0, "gamma_theory": sched.gamma, "fitted_gamma_corr": gamma_corr,
                       "fitted_gamma_mean": gamma_mean}


# ---------------------------------------------------------------------------
# oscillator-probe experiment


def _run_jc(cfg: ExperimentConfig):
    from . import jc
    from .fock import TRUNCATION_LEAK_BOUND, FockSpace, vacuum_truncation_leak

    p = cfg.parameters
    omega = p["jc.omega"]
    dim = p["jc.dim"]
    params = _domain(jc.JCParams, nu=p["jc.nu_over_omega"] * omega, omega=omega,
                     g=p["jc.g_over_omega"] * omega)
    # the (2D, 2D) matrices and the (samples, 2D) rows are the largest arrays;
    # both are bounded, in exact integers, before any is built and before
    # the leak takes floats of dim (a 401-digit dim overflows them)
    if (2 * dim) ** 2 > jc.MAX_MATRIX_ELEMENTS:
        raise RegimeError(f"jc.dim = {_show(dim)}: 2D x 2D exceeds "
                          f"{jc.MAX_MATRIX_ELEMENTS} elements")
    nu_t_max, samples = p["jc.nu_t_max"], p["jc.samples"]
    if samples * 2 * dim > jc.MAX_MATRIX_ELEMENTS:
        raise RegimeError(f"jc.samples: samples x 2D exceeds {jc.MAX_MATRIX_ELEMENTS} elements")
    space = FockSpace(dim)
    # D(2 zeta_0) is the largest displacement the run builds, judged by the
    # bound `fock.displacement` warns at; an infinite zeta_0 leaks NaN.
    leak = vacuum_truncation_leak(space, 2.0 * params.zeta0)
    if not leak <= TRUNCATION_LEAK_BOUND:
        raise RegimeError(f"Fock cutoff {dim} inadequate for pointer reach |zeta| = "
                          f"{2.0 * abs(params.zeta0):.3g}: D(zeta)|0> leaks {leak:.3g} "
                          f"past it (bound {TRUNCATION_LEAK_BOUND:g})")
    # distinguishability reports omega^3 and 2 |zeta_0|^2 omega^3; ** would raise
    _require_scales(f"jc.omega = {omega:.3g}: omega^3 or 2 |zeta_0|^2 omega^3 is not finite",
                    lambda: (2.0 * params.zeta0**2 * np.float64(omega) ** 3,))
    with np.errstate(over="ignore"):  # an unbounded window is rejected below
        if nu_t_max is None:
            # one dressed half period, nu exp(-2 zeta_0^2) t = pi / 2; pi / omega at nu = 0
            nu_t_max = 0.5 * np.pi * np.exp(2.0 * params.zeta0**2) if params.nu > 0 else np.pi
        t_max = nu_t_max / (params.nu if params.nu > 0 else omega)
        # ||H|| <= nu + omega (dim - 1) + 2 |g| sqrt(dim - 1) bounds max |E|
        phase_max = (params.nu + omega * (dim - 1)
                     + 2.0 * abs(params.g) * math.sqrt(dim - 1)) * t_max
    # a subnormal step leaves the linspace times unevenly spaced
    _require_scales(f"jc time window t_max = {t_max:.3g}: t_max or its step t_max / "
                    "(jc.samples - 1) is not a normal float",
                    lambda: (t_max, t_max / (samples - 1)), normal=True)
    if not phase_max <= _MAX_JC_PHASE:
        raise RegimeError(
            f"jc window t_max = {t_max:.3g} lets the phases E t reach {phase_max:.3g}, "
            "above 2^43: exp(-i E t) would keep under three significant digits"
        )
    times = np.linspace(0.0, t_max, samples)

    initial = jc.pointer_state(params, space, +1)
    target = jc.pointer_state(params, space, -1)
    rows = jc.evolve_rows(params, space, initial, times)
    amp = rows @ target.conj()
    p_exact = amp.real**2 + amp.imag**2
    p_pert = jc.first_order_probability_series(params, space, times, initial, target)
    p_rabi = jc.rabi_probability(params, times)
    # Polaron-dressed law, the one exact dynamics follows (Irish, PRL 99, 173601 (2007)).
    p_dressed = np.sin(params.nu * np.exp(-2.0 * params.zeta0**2) * times) ** 2
    purities = jc.reduced_purity(rows[:, :dim], rows[:, dim:])
    zeta = jc.pointer_path(params, times)

    artifacts = {
        "timeseries.csv": (["t", "p_exact", "p_perturbative", "p_rabi", "purity", "zeta_re",
                            "zeta_im"], [[times, p_exact, p_pert, p_rabi, purities, zeta.real,
                                          zeta.imag]]),
        "metadata.json": {"nu": params.nu, "omega": params.omega, "g": params.g, "dim": dim,
                          "samples": int(times.size), "deterministic": True},  # no randomness
        "distinguishability.json": jc.distinguishability(params),
    }
    return artifacts, {
        "max_abs_dev_exact_vs_rabi": float(np.max(np.abs(p_exact - p_rabi))),
        "max_abs_dev_exact_vs_dressed": float(np.max(np.abs(p_exact - p_dressed))),
        "max_transition_probability": float(np.max(p_exact)),
    }


# ---------------------------------------------------------------------------
# mass-density experiment


def _run_density(cfg: ExperimentConfig):
    from . import density as dn
    from . import histories as hist
    from .states import Packet, SmearingParams
    from .wigner import GridAliasingError, wigner_function

    p = cfg.parameters
    a = 0.5 * abs(p["density.L"])  # a cat's branches sit at +/- |L| / 2 on the x axis
    state = _domain(Packet, p["density.sigma"], [(0.0, 0.0, 0.0)]
                    if p["density.state"] == "gaussian" else [(a, 0.0, 0.0), (-a, 0.0, 0.0)])
    smear, m = SmearingParams(p["density.s_x"]), p["density.m"]
    # The closed forms take these powers in Python floats, whose ** raises on
    # overflow, a packet width of 0 has no Gaussian term, the quadrature's
    # kernels square 1 / (m s_x^2), and the fluctuation ratio squares the
    # density, which peaks at m (2 pi sigma^2)^-3/2: each must be a normal float.
    sigma, s_x, mass = np.float64(p["density.sigma"]), np.float64(smear.s_x), np.float64(m)
    ell = np.float64(smear.ell)
    _require_scales(f"density.sigma = {sigma:.3g}, density.s_x = {s_x:.3g}, density.m = {m:.3g}: "
                    "sigma^2, s_x^2, ell^3, m^3, m / ell^3, m^2 / ell^2, (m s_x)^2, (m s_x^2)^2, "
                    "1 / (m sigma^2) or the squared peak density m^2 (2 pi sigma^2)^-3 is not a "
                    "normal float",
                    lambda: (sigma**2, s_x**2, ell**3, mass**3, mass / ell**3, mass**2 / ell**2,
                             (mass * s_x) ** 2, (mass * s_x**2) ** 2, 1.0 / (mass * sigma**2),
                             mass**2 * (2.0 * np.pi * sigma**2) ** -3.0), normal=True)
    axis_state = state.axis_state(0)

    try:
        grid = wigner_function(axis_state)
    except GridAliasingError as exc:
        raise RegimeError(str(exc)) from exc

    # Relative fluctuation profile of the 3D state; points where the density
    # (or its square) vanishes have no ratio and are left out, and counted.
    # The ratio ~ 1 / (ell^3 |psi|^2) peaks where the density is least: no
    # scale checked up front bounds it on the profile, so its values are.
    xs = np.linspace(grid.x[0], grid.x[-1], 101)
    with np.errstate(over="ignore"):  # an overflowing ratio is rejected below
        ratio = dn.fluctuation_ratio(state, smear, np.outer(xs, (1.0, 0.0, 0.0)), m)
    kept = ~np.isnan(ratio)
    _require_scales(f"density.sigma = {sigma:.3g}, density.s_x = {s_x:.3g}, density.m = {m:.3g}: "
                    "the fluctuation ratio 1 / (ell^3 |psi|^2) - 1 or its numerator "
                    "m^2 |psi|^2 / ell^3 overflows on the profile", lambda: ratio[kept])

    artifacts = {
        "wigner.csv": (["x", "p", "w"], [[np.repeat(grid.x, grid.p.size),
                                          np.tile(grid.p, grid.x.size), grid.values.ravel()]]),
        "wigner_meta.json": {
            "columns": ["x", "p", "w"],
            "x_min": float(grid.x[0]), "x_max": float(grid.x[-1]), "x_count": int(grid.x.size),
            "p_min": float(grid.p[0]), "p_max": float(grid.p[-1]), "p_count": int(grid.p.size),
            "normalization": grid.meta.get("normalization"),
            "units": "natural (hbar = 1); W normalized to dx dp / (2 pi)",
            "state": {"kind": p["density.state"], "sigma": p["density.sigma"],
                      "separation": abs(p["density.L"]) if p["density.state"] == "cat" else 0.0},
            "sampling_width": p["density.s_x"],
            "mass": m,
        },
        # Static-limit mean profile along the axis vs m |psi|^2.
        "static_mean.csv": (["x", "smeared_mean", "density_exact"],
                            [[xs, dn.density_mean(axis_state, xs, 0.0, m),
                              m * np.abs(axis_state.psi(xs)) ** 2]]),
        "fluctuation_profile.csv": (["x", "c_ratio_quadratic"], [[xs[kept], ratio[kept]]]),
    }

    # Two-point correlators at +/- dr/2: delta-limit vs full quadrature at a
    # few offsets; dict.fromkeys drops repeats (10 s_x = 0.5 at s_x = 0.05).
    t1, t2 = 0.1, 0.35
    r1 = 0.5 * np.array(list(dict.fromkeys((10.0 * smear.s_x, 20.0 * smear.s_x, 0.5))))
    delta = [dn.smeared_corr_phase_space(axis_state, r, t1, -r, t2, m) for r in r1]
    quad = [dn.smeared_corr_quadrature(axis_state, smear, r, t1, -r, t2, m) for r in r1]
    artifacts["correlators.csv"] = (
        ["r", "t", "r2", "t2", "mean_delta", "corr_delta", "corr_quadrature"],
        [[r1, np.full(r1.size, t1), -r1, np.full(r1.size, t2), *np.transpose(delta), quad]])

    # Marginalization defect of two-time sampling records: generic mass vs
    # quasi-commuting heavy mass.
    sam = SmearingParams(max(p["density.s_x"], p["density.sigma"] / 4.0))
    r1_comb = hist.partition_points(0.0, 6.0 * p["density.sigma"], sam.s_x)
    dts, masses = (0.4, 0.2, 0.1, 0.2), (m, m, m, 1e14)
    defects = [hist.additivity_defect(axis_state, sam, 0.1, 0.1 + dt, r1_comb,
                                      [0.0, p["density.sigma"]], mass)
               for dt, mass in zip(dts, masses)]
    artifacts["kolmogorov_defect.csv"] = (["delta_t", "mass", "defect"],
                                          [[dts, masses, defects]])
    results = {"wigner_normalization": grid.meta.get("normalization"),
               "profile_points_dropped": int(np.count_nonzero(~kept)),
               "defect_comb_size": int(r1_comb.size)}
    return artifacts, results


# key -> (type, default, domain).  A domain is "finite", "> 0" or ">= 0" (a
# finite number), an integer's lower bound, or a tuple of the allowed values;
# resolve_config checks each given key against it, and no runner checks again.
SCHEMAS = {
    "g2s-correlations": {
        "g2s.nu": (float, _REQUIRED, ">= 0"),
        "g2s.chi": (float, 0.0, "finite"),
        "g2s.c_plus_re": (float, 1.0, "finite"),
        "g2s.c_plus_im": (float, 0.0, "finite"),
        "g2s.c_minus_re": (float, 0.0, "finite"),
        "g2s.c_minus_im": (float, 0.0, "finite"),
        "g2s.m": (float, 1.0, "> 0"),
        "g2s.ell": (float, 1.0, "> 0"),
        "grid.t_min": (float, 0.0, "finite"),
        "grid.t_max": (float, _REQUIRED, "finite"),
        "grid.t_count": (int, _REQUIRED, 1),
    },
    "force-trajectories": {
        "force.nu": (float, _REQUIRED, ">= 0"),
        "force.tau": (float, _REQUIRED, "> 0"),
        "force.steps": (int, _REQUIRED, 1),
        "force.count": (int, _REQUIRED, "finite"),  # below 100 is a regime error
        "force.f0": (float, None, "> 0"),
        "force.max_lag": (int, 0, 0),  # 0 for all lags
        "force.dump_trajectories": (int, 0, (0, 1)),
        "probe.G": (float, 1.0, "> 0"),
        "probe.m": (float, 1.0, "> 0"),
        "probe.m0": (float, 1.0, "> 0"),
        "probe.L": (float, 2.0, "> 0"),
        "probe.y": (float, 0.0, ">= 0"),
    },
    "jc-suite": {
        "jc.omega": (float, 1.0, "> 0"),
        "jc.g_over_omega": (float, 2.0, "finite"),
        "jc.nu_over_omega": (float, 0.01, ">= 0"),
        "jc.dim": (int, 64, 2),
        "jc.nu_t_max": (float, None, "> 0"),
        "jc.samples": (int, 61, 2),
    },
    "density-suite": {
        "density.state": (str, "gaussian", ("gaussian", "cat")),
        "density.sigma": (float, 1.0, "> 0"),
        "density.L": (float, 6.0, "finite"),
        "density.s_x": (float, 0.05, "> 0"),
        "density.m": (float, 1.0, "> 0"),
    },
}

_RUNNERS = {
    "g2s-correlations": _run_g2s,
    "force-trajectories": _run_force,
    "jc-suite": _run_jc,
    "density-suite": _run_density,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one named experiment, write its artifacts and manifest.json, and
    return the manifest.  Each artifact is written into a fresh hidden
    `.gravcat-*` directory in the output directory, hashed as it is written,
    and read back once (InternalCheckError if the digests differ), then all
    are moved into place, manifest.json last; see the module docstring."""
    start = time.perf_counter()
    artifacts, results = _RUNNERS[cfg.experiment](cfg)
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".gravcat-", dir=outdir))
    try:
        written = [write_json(stage / name, spec) if isinstance(spec, dict)
                   else write_csv(stage / name, *spec) for name, spec in artifacts.items()]
        duration = time.perf_counter() - start
        entries = []
        for path in written:
            if sha256_file(path) != path.sha256:
                raise InternalCheckError(f"{path.name} on disk differs from the bytes written")
            entries.append({"name": path.name, "sha256": path.sha256, "bytes": path.stat().st_size})
        manifest = {"experiment": cfg.experiment, "config": dict(sorted(cfg.parameters.items())),
                    "seed": cfg.seed, "tool_version": __version__, "artifacts": entries,
                    "results": results, "duration_seconds": duration}
        write_json(stage / "manifest.json", manifest)
        stale = _listed_artifacts(outdir / "manifest.json") - set(artifacts)
        for name in [*artifacts, "manifest.json"]:
            os.replace(stage / name, outdir / name)
        for name in stale:
            if (outdir / name).is_file():
                (outdir / name).unlink()
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return manifest


def _listed_artifacts(manifest: Path) -> set:
    """The artifact names a manifest.json lists, none if it cannot be read,
    keeping only plain names: no path, no leading dot, not the manifest."""
    try:
        names = {entry["name"] for entry in json.loads(manifest.read_text())["artifacts"]}
    except (OSError, ValueError, LookupError, TypeError):
        return set()
    return {name for name in names if name != "manifest.json" and isinstance(name, str)
            and re.fullmatch(r"\w[\w.-]*", name, re.ASCII)}
