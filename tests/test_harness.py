"""End-to-end experiment harness: configs, determinism, manifests, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravcat
from gravcat import harness
from gravcat.cli import main
from gravcat.harness import (
    ConfigError,
    load_config,
    resolve_config,
    run_experiment,
    sha256_file,
)


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_csv_rows_oracle(path: Path, header, rows):
    """The former row writer: every value formatted on its own."""
    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


G2S_CFG = {"g2s.nu": 1.0, "grid.t_max": 1.5, "grid.t_count": 4}
FORCE_CFG = {"force.nu": 0.5, "force.tau": 0.2, "force.steps": 40,
             "force.count": 400, "force.max_lag": 20}
JC_CFG = {"jc.nu_over_omega": 0.02, "jc.samples": 7, "jc.nu_t_max": 0.5}
DENS_CFG = {"density.state": "gaussian", "density.sigma": 1.0, "density.s_x": 0.05}


_NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                      0xFFF4000000000ABC], dtype=np.uint64)
_SPECIAL_POOL = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, 0.1],
                                _NAN_BITS.view(np.float64)])


def _per_block(n, make):
    """A column made one write_csv block at a time by make(block_size)."""
    sizes = [min(harness._CSV_BLOCK_ROWS, n - lo) for lo in range(0, n, harness._CSV_BLOCK_ROWS)]
    return np.concatenate([make(b) for b in sizes]) if sizes else np.array([])


def _distinct_per_block(rng, n, distinct):
    """Float64 blocks holding distinct(b) distinct values each, shuffled."""
    def make(b):
        k = max(1, min(distinct(b), b))
        values = np.arange(1, k + 1) / 3.0
        return rng.permutation(np.concatenate([values, rng.choice(values, b - k)]))
    return _per_block(n, make)


# Column generators for the writer's property test: (rng, length) -> column.
CSV_COLUMN_KINDS = {
    "pool": lambda rng, n: rng.choice(rng.normal(size=3) * 1e5, n),
    "special": lambda rng, n: rng.choice(_SPECIAL_POOL, n),
    "special_or_distinct": lambda rng, n: np.where(rng.random(n) < 0.5, rng.choice(_SPECIAL_POOL, n),
                                                   rng.normal(size=n)),
    "distinct": lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
    "half_distinct": lambda rng, n: _distinct_per_block(rng, n, lambda b: b // 2),
    "half_plus_one": lambda rng, n: _distinct_per_block(rng, n, lambda b: b // 2 + 1),
    "strided": lambda rng, n: (rng.choice([0.25, -1.5], n) + 1j * rng.normal(size=n)).real,
    "float32_pool": lambda rng, n: rng.choice(rng.normal(size=4), n).astype(np.float32),
    "float32": lambda rng, n: rng.normal(size=n).astype(np.float32),
    "int8": lambda rng, n: rng.integers(-128, 128, size=n).astype(np.int8),
    "int64": lambda rng, n: rng.integers(-2**63, 2**63, size=n, dtype=np.int64),
    "uint64": lambda rng, n: rng.integers(0, 2**64, size=n, dtype=np.uint64),
    "bool": lambda rng, n: rng.integers(0, 2, size=n).astype(bool),
}


class TestCsvWriter:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]

    def _both(self, tmp_path, header, columns):
        new = harness.write_csv(tmp_path / "new.csv", header, columns)
        write_csv_rows_oracle(tmp_path / "old.csv", header, zip(*columns))
        return new.read_bytes(), (tmp_path / "old.csv").read_bytes()

    def test_matches_row_oracle_across_blocks(self, tmp_path):
        n = 2 * harness._CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(11)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        floats[: len(self.SPECIAL)] = self.SPECIAL
        floats[-len(self.SPECIAL):] = self.SPECIAL
        columns = [
            np.arange(n) - n // 2,
            rng.integers(0, 2, size=n).astype(bool),
            floats,
            rng.integers(-128, 128, size=n).astype(np.int8),
            rng.integers(0, 2**64, size=n, dtype=np.uint64),
            rng.normal(size=n).astype(np.float32),
        ]
        new, old = self._both(tmp_path, ["i", "b", "f", "i8", "u64", "f32"], columns)
        assert new == old
        assert new.count(b"\n") == n + 1

    def test_repeated_text_route_choice(self):
        # exactly half of the patterns distinct takes the table, one more does not
        half = np.repeat(np.arange(2048) / 7.0, 2)
        assert harness._repeated_text(half) == ["%.17g" % v for v in half.tolist()]
        assert harness._repeated_text(np.append(half[:-2], [0.5, 0.25])) is None
        assert harness._repeated_text(np.array([1.5])) is None
        assert harness._repeated_text(np.arange(4)) is None

    def test_repeated_text_keeps_each_bit_pattern(self):
        column = np.tile(np.concatenate([[0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf],
                                         _NAN_BITS.view(np.float64)]), 3)
        assert harness._repeated_text(column) == ["%.17g" % v for v in column.tolist()]
        assert harness._repeated_text(column)[:2] == ["0", "-0"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.sampled_from([0, 1, 2, 7, 4095, 4096, 4097, 8193]),
           kinds=st.lists(st.sampled_from(sorted(CSV_COLUMN_KINDS)), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_row_oracle_property(self, tmp_path_factory, n, kinds, seed):
        rng = np.random.default_rng(seed)
        columns = [CSV_COLUMN_KINDS[kind](rng, n) for kind in kinds]
        header = [f"c{i}" for i in range(len(kinds))]
        new, old = self._both(tmp_path_factory.mktemp("csv"), header, columns)
        assert new == old

    def test_empty_table_is_header_line(self, tmp_path):
        new, old = self._both(tmp_path, ["a", "t"], [np.array([], dtype=int), np.array([])])
        assert new == old == b"a,t\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3), np.arange(4)])
        with pytest.raises(ValueError):
            harness.write_csv(tmp_path / "x.csv", ["a", "b"], [np.arange(3)])

    def test_dump_matches_ensemble(self, tmp_path):
        # oracle: the seeded ensemble, one row per (trajectory, step)
        from gravcat import measurement as ms

        payload = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=4,
                                      output_dir=tmp_path / "o"))
        sched = ms.MeasurementSchedule(tau=FORCE_CFG["force.tau"],
                                       n_steps=FORCE_CFG["force.steps"], nu=FORCE_CFG["force.nu"])
        readings = ms.sample_trajectories(sched, FORCE_CFG["force.count"], 4).readings
        rows = ((i, step, readings[i, step])
                for i in range(readings.shape[0]) for step in range(readings.shape[1]))
        write_csv_rows_oracle(tmp_path / "dump.csv", ["trajectory_id", "step", "reading"], rows)
        assert (tmp_path / "o" / "trajectories.csv").read_bytes() == \
            (tmp_path / "dump.csv").read_bytes()

    def test_dump_index_columns_match_int64_route(self, tmp_path):
        # the int32 trajectory-id and step columns print as the int64 ones did
        from gravcat import measurement as ms

        payload = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=6,
                                      output_dir=tmp_path / "o"))
        sched = ms.MeasurementSchedule(tau=FORCE_CFG["force.tau"],
                                       n_steps=FORCE_CFG["force.steps"], nu=FORCE_CFG["force.nu"])
        readings = ms.sample_trajectories(sched, FORCE_CFG["force.count"], 6).readings
        count, length = readings.shape
        harness.write_csv(tmp_path / "wide.csv", ["trajectory_id", "step", "reading"],
                          [np.repeat(np.arange(count, dtype=np.int64), length),
                           np.tile(np.arange(length, dtype=np.int64), count), readings.ravel()])
        assert (tmp_path / "o" / "trajectories.csv").read_bytes() == \
            (tmp_path / "wide.csv").read_bytes()

    def test_dump_memory_bounded(self, tmp_path):
        # tracemalloc peak of a whole 2000 x 50 dumping run (102,000 rows,
        # 25 writer blocks): 2.9 MB measured, of which the int32 id and step
        # columns are 0.8 MB and numpy.random and numpy.fft, first imported
        # by the run, 0.8 MB; the row-list writer it replaced peaked at
        # 8.4 MB.  At 20,000 x 200 the same run peaks at 36 MB against
        # 348 MB, but takes a minute under tracemalloc.
        import tracemalloc

        payload = {"force.nu": 0.1, "force.tau": 1.0, "force.steps": 50,
                   "force.count": 2000, "force.dump_trajectories": 1}
        cfg = resolve_config("force-trajectories", payload, seed=3, output_dir=tmp_path)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert (tmp_path / "trajectories.csv").read_bytes().count(b"\n") == 2000 * 51 + 1


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(G2S_CFG)
        cfg["g2s.typo"] = 1.0
        with pytest.raises(ConfigError, match="unknown config keys"):
            resolve_config("g2s-correlations", cfg)

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError, match="required"):
            resolve_config("g2s-correlations", {"g2s.nu": 1.0})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("nope", {})

    def test_defaults_filled_and_echoed(self, tmp_path):
        cfg = resolve_config("g2s-correlations", G2S_CFG, seed=5, output_dir=tmp_path)
        assert cfg.parameters["g2s.chi"] == 0.0
        assert cfg.seed == 5
        man = run_experiment(cfg)
        assert man.config["g2s.chi"] == 0.0
        assert man.config["grid.t_count"] == 4

    def test_config_file_must_exist(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_empty_time_grid_makes_no_files(self, tmp_path):
        cfg = resolve_config(
            "g2s-correlations",
            {**G2S_CFG, "grid.t_count": 0},
            output_dir=tmp_path / "out",
        )
        with pytest.raises(ConfigError, match="empty"):
            run_experiment(cfg)
        produced = list((tmp_path / "out").glob("*.csv"))
        assert produced == []


class TestManifest:
    def test_checksums_match_files(self, tmp_path):
        cfg = resolve_config("g2s-correlations", G2S_CFG, seed=1, output_dir=tmp_path)
        man = run_experiment(cfg)
        for entry in man.artifacts:
            path = tmp_path / entry["name"]
            assert sha256_file(path) == entry["sha256"]
            assert path.stat().st_size == entry["bytes"]

    def test_checksum_streams_in_chunks(self, tmp_path):
        # digest equals the whole-file digest across chunk boundaries, and
        # hashing an 8 MiB file holds one chunk buffer, not the file
        import tracemalloc

        path = tmp_path / "blob.bin"
        path.write_bytes(np.random.default_rng(5).bytes(8 * harness._HASH_CHUNK_BYTES + 17))
        tracemalloc.start()
        try:
            digest = sha256_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 1.5 * harness._HASH_CHUNK_BYTES

    def test_manifest_json_is_strict(self, tmp_path):
        cfg = resolve_config("force-trajectories", FORCE_CFG, seed=1, output_dir=tmp_path)
        run_experiment(cfg)
        text = (tmp_path / "manifest.json").read_text()
        assert "NaN" not in text
        json.loads(text)

    def test_every_csv_has_header_and_sidecar_manifest(self, tmp_path):
        cfg = resolve_config("density-suite", DENS_CFG, seed=1, output_dir=tmp_path)
        man = run_experiment(cfg)
        assert (tmp_path / "manifest.json").exists()
        names = {e["name"] for e in man.artifacts}
        for name in names:
            if name.endswith(".csv"):
                header, rows = read_csv(tmp_path / name)
                assert all(h.strip() for h in header)
                assert rows


class TestDeterminism:
    def _artifact_bytes(self, outdir: Path, man):
        return {e["name"]: (outdir / e["name"]).read_bytes() for e in man.artifacts}

    @pytest.mark.parametrize(
        "experiment,payload",
        [
            ("g2s-correlations", G2S_CFG),
            ("force-trajectories", FORCE_CFG),
            ("jc-suite", JC_CFG),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, experiment, payload):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        man_a = run_experiment(resolve_config(experiment, payload, seed=9, output_dir=out_a))
        man_b = run_experiment(resolve_config(experiment, payload, seed=9, output_dir=out_b))
        assert self._artifact_bytes(out_a, man_a) == self._artifact_bytes(out_b, man_b)
        # manifests agree apart from wall-clock duration
        da, db = man_a.to_dict(), man_b.to_dict()
        da.pop("duration_seconds"), db.pop("duration_seconds")
        assert da == db

    def test_seed_changes_trajectories_not_analytic_columns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        payload = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=1, output_dir=out_a))
        run_experiment(resolve_config("force-trajectories", payload, seed=2, output_dir=out_b))
        assert (out_a / "trajectories.csv").read_bytes() != (out_b / "trajectories.csv").read_bytes()
        meta_a = json.loads((out_a / "metadata.json").read_text())
        meta_b = json.loads((out_b / "metadata.json").read_text())
        for key in ("nu", "tau", "N", "Gamma", "f0", "count"):
            assert meta_a[key] == meta_b[key]


class TestCli:
    def test_import_loads_no_scipy(self):
        # a fresh interpreter, because this test process has scipy loaded
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(gravcat.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        code = ("import gravcat, gravcat.cli, sys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_density_suite_loads_no_scipy(self, tmp_path):
        # a whole default density-suite run, Wigner spline included
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(gravcat.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        cfg = write_config(tmp_path, "c.json", {})
        code = ("import sys; from gravcat.cli import main; "
                f"code = main(['density-suite', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'o')!r}]); "
                "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "0 []"

    def test_narrow_gaussian_density_suite_succeeds(self, tmp_path):
        # its history grid reaches |x| ~ 102 at dx ~ 0.012, where linspace
        # rounding once failed the uniformity check (exit 4)
        cfg = write_config(tmp_path, "c.json",
                           {"density.state": "gaussian", "density.sigma": 0.02})
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_oversized_wigner_grid_is_regime_error(self, tmp_path):
        # a 34,608 x 45,838 phase matrix (25 GB complex), rejected before it
        # is allocated: the run peaks at 0.9 MB under tracemalloc
        import tracemalloc

        cfg = write_config(tmp_path, "c.json", {"density.state": "cat", "density.sigma": 0.001})
        tracemalloc.start()
        try:
            code = main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4 * 2**20

    def test_underflowing_fluctuation_rows_are_dropped(self, tmp_path):
        # between the branches of a sigma = 0.1 cat the density is positive
        # but its square underflows; those profile points are left out (exit
        # 0) instead of failing the run with a ZeroDivisionError (exit 4)
        cfg = write_config(tmp_path, "c.json", {"density.state": "cat", "density.sigma": 0.1})
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "fluctuation_profile.csv")
        assert 0 < len(rows) < 101
        assert np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_oversized_history_grid_is_regime_error(self, tmp_path):
        # the sigma = 1e-5 Gaussian's history grid would take 2^25 points
        # (512 MiB per complex array); it is refused before allocation and
        # the run peaks at 12 MB under tracemalloc, in the Wigner stages
        import tracemalloc

        cfg = write_config(tmp_path, "c.json", {"density.sigma": 1e-5})
        tracemalloc.start()
        try:
            code = main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 32 * 2**20

    def test_success_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**G2S_CFG})
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**G2S_CFG, "bad.key": 1})
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_regime_error_exit_code_small_count(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**FORCE_CFG, "force.count": 10})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_range_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**G2S_CFG, "g2s.nu": -1.0})
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_regime_error_exit_code_truncation(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**JC_CFG, "jc.g_over_omega": 4.0, "jc.dim": 32})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("key,value", [
        ("jc.nu_over_omega", float("nan")),
        ("jc.omega", float("nan")),
        ("jc.nu_t_max", float("nan")),
        ("jc.g_over_omega", float("inf")),
    ])
    def test_non_finite_jc_input_is_config_error(self, tmp_path, key, value):
        cfg = write_config(tmp_path, "c.json", {**JC_CFG, key: value})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("force.nu", float("nan")),
        ("force.tau", float("inf")),
        ("force.f0", float("nan")),
        ("force.f0", 0.0),
        ("probe.y", float("nan")),
        ("probe.G", float("inf")),
    ])
    def test_non_finite_force_input_is_config_error(self, tmp_path, key, value):
        cfg = write_config(tmp_path, "c.json", {**FORCE_CFG, key: value})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("g2s-correlations", {**G2S_CFG, "g2s.nu": float("nan")}),
        ("g2s-correlations", {**G2S_CFG, "g2s.chi": float("inf")}),
        ("g2s-correlations", {**G2S_CFG, "g2s.m": float("nan")}),
        ("g2s-correlations", {**G2S_CFG, "g2s.ell": float("inf")}),
        ("g2s-correlations", {**G2S_CFG, "g2s.c_plus_re": float("nan")}),
        ("g2s-correlations", {**G2S_CFG, "grid.t_max": float("inf")}),
        ("g2s-correlations", {**G2S_CFG, "grid.t_min": float("nan")}),
        ("density-suite", {**DENS_CFG, "density.sigma": float("nan")}),
        ("density-suite", {**DENS_CFG, "density.s_x": float("inf")}),
        ("density-suite", {**DENS_CFG, "density.m": float("nan")}),
        ("density-suite", {**DENS_CFG, "density.m": -1.0}),
        ("density-suite", {**DENS_CFG, "density.state": "cat", "density.L": float("nan")}),
    ])
    def test_non_finite_g2s_and_density_input_is_config_error(self, tmp_path, experiment,
                                                              payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,payload,extra", [
        ("g2s-correlations", {**G2S_CFG, "grid.t_count": 3.9}, []),
        ("jc-suite", {**JC_CFG, "jc.samples": 3.9}, []),
        ("jc-suite", {**JC_CFG, "jc.dim": True}, []),
        ("g2s-correlations", {**G2S_CFG, "g2s.nu": True}, []),
        ("force-trajectories", {**FORCE_CFG, "force.dump_trajectories": 1.7}, []),
        ("force-trajectories", FORCE_CFG, ["--seed", "-1"]),
        ("force-trajectories", {**FORCE_CFG, "seed": -1}, []),
        ("force-trajectories", {**FORCE_CFG, "seed": 1.5}, []),
    ])
    def test_integer_keys_and_seed_are_validated(self, tmp_path, experiment, payload, extra):
        cfg = write_config(tmp_path, "c.json", payload)
        argv = [experiment, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra]
        assert main(argv) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_whole_number_float_is_an_integer(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**G2S_CFG, "grid.t_count": 4.0})
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "mean_density.csv")
        assert len(rows) == 2 * 4

    def test_fit_window_stops_at_noise(self, tmp_path):
        # at nu tau = 0.5 the correlation of 100 records sinks into its noise
        # after a few dozen lags; the fit stops there instead of failing
        payload = {"force.nu": 0.5, "force.tau": 1.0, "force.steps": 200, "force.count": 100}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        results = json.loads((tmp_path / "o" / "manifest.json").read_text())["results"]
        assert 0 < results["fitted_gamma_corr"] < np.inf
        assert 0 < results["fitted_gamma_mean"] < np.inf

    @pytest.mark.parametrize("nu", [np.pi / 2, 2.5])
    def test_no_fit_window_is_regime_error(self, tmp_path, nu):
        # cos(nu tau) = 0: nothing after lag 0 is significant;
        # cos(nu tau) < 0: the correlation changes sign at every lag
        payload = {"force.nu": nu, "force.tau": 1.0, "force.steps": 50, "force.count": 1000}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**FORCE_CFG, "seed": 1,
                                                "force.dump_trajectories": 1})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["force-trajectories", "--config", str(cfg), "--seed", "2", "--out", str(a)]) == 0
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()


class TestG2sExperiment:
    def test_frozen_dynamics_reproduces_constants(self, tmp_path):
        payload = {
            "g2s.nu": 0.0,
            "g2s.c_plus_re": 0.8,
            "g2s.c_minus_re": 0.6,
            "grid.t_max": 2.0,
            "grid.t_count": 3,
        }
        cfg = resolve_config("g2s-correlations", payload, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "mean_density.csv")
        means = {(row[0], row[1]): float(row[2]) for row in rows}
        for (a, _t), val in means.items():
            expected = 0.64 if a == "1" else 0.36
            assert abs(val - expected) < 1e-12
        header, rows = read_csv(tmp_path / "correlations.csv")
        cols = {name: i for i, name in enumerate(header)}
        for row in rows:
            a1, a2 = row[cols["a1"]], row[cols["a2"]]
            q_re = float(row[cols["quantum_re"]])
            expected = {("1", "1"): 0.64, ("-1", "-1"): 0.36}.get((a1, a2), 0.0)
            assert abs(q_re - expected) < 1e-12
            assert abs(float(row[cols["quantum_im"]])) < 1e-15

    def test_rows_match_scalar_loop(self, tmp_path):
        # oracle: the scalar closed forms in the experiment's documented row
        # order, written by the former row writer; the files must be equal
        from gravcat import two_state as ts

        payload = {"g2s.nu": 1.3, "g2s.chi": 0.7, "g2s.c_plus_re": 0.6, "g2s.c_plus_im": 0.48,
                   "g2s.c_minus_im": 0.64, "g2s.m": 2.5, "g2s.ell": 0.7,
                   "grid.t_min": -1.0, "grid.t_max": 4.0, "grid.t_count": 6}
        run_experiment(resolve_config("g2s-correlations", payload, output_dir=tmp_path / "o"))
        state = ts.QubitState(0.6 + 0.48j, 0.64j)
        params, dens = ts.TunnelingParams(1.3, 0.7), ts.SmearedDensityParams(2.5, 0.7)
        times = np.linspace(-1.0, 4.0, 6)
        mean_rows = [(a, t, ts.mean_density(state, dens, a, params, t))
                     for t in times for a in (1, -1)]
        corr_rows = []
        for i, t1 in enumerate(times):
            for t2 in times[i:]:
                for a1 in (1, -1):
                    for a2 in (1, -1):
                        q = ts.two_time_quantum_corr(state, dens, a1, a2, params, t1, t2)
                        st = ts.two_time_statistical_corr(state, dens, a1, a2, params, t1, t2)
                        corr_rows.append((a1, a2, t1, t2, q.real, q.imag, st))
        write_csv_rows_oracle(tmp_path / "mean.csv", ["a", "t", "mean"], mean_rows)
        write_csv_rows_oracle(tmp_path / "corr.csv", ["a1", "a2", "t1", "t2", "quantum_re",
                                                      "quantum_im", "statistical"], corr_rows)
        assert (tmp_path / "o" / "mean_density.csv").read_bytes() == \
            (tmp_path / "mean.csv").read_bytes()
        assert (tmp_path / "o" / "correlations.csv").read_bytes() == \
            (tmp_path / "corr.csv").read_bytes()

    def test_row_count_matches_grid(self, tmp_path):
        cfg = resolve_config("g2s-correlations", G2S_CFG, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        _, mean_rows = read_csv(tmp_path / "mean_density.csv")
        assert len(mean_rows) == 2 * 4
        _, corr_rows = read_csv(tmp_path / "correlations.csv")
        assert len(corr_rows) == 4 * (4 * 5) // 2


class TestJcExperiment:
    def test_outputs_and_distinguishability(self, tmp_path):
        cfg = resolve_config("jc-suite", JC_CFG, seed=0, output_dir=tmp_path)
        man = run_experiment(cfg)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        assert header == ["t", "p_exact", "p_perturbative", "p_rabi", "purity",
                          "zeta_re", "zeta_im"]
        report = json.loads((tmp_path / "distinguishability.json").read_text())
        zeta0 = report["zeta0"]
        assert abs(report["overlap"] - np.exp(-4.0 * zeta0**2)) < 1e-12
        assert report["probe_ok"] is True
        assert "max_abs_dev_exact_vs_rabi" in man.results

    def test_zero_rate_gives_zero_transition(self, tmp_path):
        payload = {**JC_CFG, "jc.nu_over_omega": 0.0}
        cfg = resolve_config("jc-suite", payload, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        cols = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert abs(float(row[cols["p_exact"]])) < 1e-12
            assert abs(float(row[cols["p_rabi"]])) < 1e-15

    def test_rabi_column_is_sine_squared(self, tmp_path):
        cfg = resolve_config("jc-suite", JC_CFG, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        cols = {name: i for i, name in enumerate(header)}
        nu = JC_CFG["jc.nu_over_omega"]
        for row in rows:
            t = float(row[cols["t"]])
            assert abs(float(row[cols["p_rabi"]]) - np.sin(nu * t) ** 2) < 1e-12


class TestDensityExperiment:
    def test_wigner_grid_matches_analytic_gaussian(self, tmp_path):
        cfg = resolve_config("density-suite", DENS_CFG, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "wigner.csv")
        sigma = DENS_CFG["density.sigma"]
        worst = 0.0
        for row in rows[:: max(1, len(rows) // 500)]:
            x, p, w = (float(v) for v in row)
            expected = 2.0 * np.exp(-x**2 / (2 * sigma**2) - 2 * sigma**2 * p**2)
            worst = max(worst, abs(w - expected))
        assert worst < 1e-6

    def test_static_mean_column_matches_density(self, tmp_path):
        cfg = resolve_config("density-suite", DENS_CFG, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        _, rows = read_csv(tmp_path / "static_mean.csv")
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) < 1e-6

    def test_static_mean_matches_scalar_loop(self, tmp_path):
        payload = {"density.state": "cat", "density.sigma": 1.0, "density.L": 6.0}
        run_experiment(resolve_config("density-suite", payload, seed=0, output_dir=tmp_path))
        from gravcat import density as dn
        from gravcat.states import Cat1D
        from gravcat.wigner import wigner_function

        state = Cat1D(1.0, 6.0)
        grid = wigner_function(state)
        xs = np.linspace(grid.x[0], grid.x[-1], 101)
        loop = [dn.smeared_mean_phase_space(grid, float(x), 0.0, 1.0) for x in xs]
        harness.write_csv(tmp_path / "loop.csv", ["x", "smeared_mean", "density_exact"],
                          [xs, loop, np.abs(state.psi(xs)) ** 2])
        assert (tmp_path / "static_mean.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_cat_state_fringes_present(self, tmp_path):
        payload = {"density.state": "cat", "density.sigma": 0.5, "density.L": 4.0,
                   "density.s_x": 0.05}
        cfg = resolve_config("density-suite", payload, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "wigner.csv")
        near_zero = [
            (float(p), float(w))
            for x, p, w in (map(float, row) for row in rows)
            if abs(x) < 1e-9
        ]
        values = np.array([w for _, w in near_zero])
        assert np.any(values > 1e-3) and np.any(values < -1e-3)

    def test_defect_table_shows_commuting_limit(self, tmp_path):
        cfg = resolve_config("density-suite", DENS_CFG, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        _, rows = read_csv(tmp_path / "kolmogorov_defect.csv")
        generic = [float(r[2]) for r in rows if float(r[1]) < 1e6]
        frozen = [float(r[2]) for r in rows if float(r[1]) >= 1e6]
        assert all(v > 1e-6 for v in generic)
        assert all(v < 1e-10 for v in frozen)
