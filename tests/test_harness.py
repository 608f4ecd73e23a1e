"""End-to-end experiment harness: configs, determinism, manifests, exit codes."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gravcat
from gravcat import harness
from gravcat.cli import main
from gravcat.harness import (
    SCHEMAS,
    ConfigError,
    InternalCheckError,
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


# The property test's configs: a valid base per experiment, with up to three
# keys of its schema drawn.  A float key draws near its default (either sign
# where its domain is "finite") or an extreme; an integer key draws a small
# size, 0 and -1 included, and a bounded size key also a huge one; a string
# key one of its values or another.
FUZZ_BASE = {"g2s-correlations": G2S_CFG, "force-trajectories": FORCE_CFG,
             "jc-suite": {**JC_CFG, "jc.dim": 16, "jc.g_over_omega": 0.5}, "density-suite": {}}
FUZZ_EXTREMES = [0.0, -1.0, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan]
FUZZ_HUGE = st.sampled_from([1e9, 1e300])
FUZZ_SIZES = {"grid.t_count": st.integers(-1, 6) | FUZZ_HUGE,
              "force.steps": st.integers(-1, 30) | FUZZ_HUGE,
              "force.count": st.sampled_from([-1, 0, 99, 100, 1000]),
              "force.max_lag": st.integers(-1, 30), "force.dump_trajectories": st.integers(-1, 2),
              "jc.dim": st.integers(-1, 24) | FUZZ_HUGE,
              "jc.samples": st.integers(-1, 9) | FUZZ_HUGE}


def _fuzzed_value(key, typ, default, domain):
    if typ is str:
        return st.sampled_from([*domain, "other"])
    if typ is int:
        return FUZZ_SIZES[key]
    scale = abs(default) if isinstance(default, float) and default else 1.0
    near = st.floats(scale / 4.0, 4.0 * scale)
    if domain == "finite":
        near = near | near.map(lambda v: -v)
    return near | st.sampled_from(FUZZ_EXTREMES)


def _fuzzed_config(experiment):
    schema = SCHEMAS[experiment]
    keys = st.lists(st.sampled_from(sorted(schema)), max_size=3, unique=True)
    drawn = keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: _fuzzed_value(k, *schema[k]) for k in ks}))
    return drawn.map(lambda d: (experiment, {**FUZZ_BASE[experiment], **d}))


_NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                      0xFFF4000000000ABC], dtype=np.uint64)
_SPECIAL_POOL = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, 0.1],
                                _NAN_BITS.view(np.float64)])


def _per_block(n, make, block=4096):
    """A column made in runs of `block` rows by make(run_length)."""
    sizes = [min(block, n - lo) for lo in range(0, n, block)]
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
        new = harness.write_csv(tmp_path / "new.csv", header, [columns])
        write_csv_rows_oracle(tmp_path / "old.csv", header, zip(*columns))
        return new.read_bytes(), (tmp_path / "old.csv").read_bytes()

    def test_matches_row_oracle_across_blocks(self, tmp_path):
        dtypes = [np.int64, bool, np.float64, np.int8, np.uint64, np.float32]
        n = 2 * harness._block_rows([np.dtype(d) for d in dtypes]) + 3
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

    @staticmethod
    def _cells(tmp_path, column):
        """The cells write_csv prints for a one-column table, and the cells
        Python's % prints for it."""
        path = harness.write_csv(tmp_path / "one.csv", ["c"], [[column]])
        fmt = "%d" if column.dtype.kind in "biu" else "%.17g"
        return path.read_bytes().split(b"\n")[1:-1], [(fmt % v).encode() for v in column.tolist()]

    def test_random_bit_patterns_match_percent_format(self, tmp_path):
        bits = np.random.default_rng(21).integers(0, 2**64, size=200_000, dtype=np.uint64)
        got, want = self._cells(tmp_path, bits.view(np.float64))
        assert got == want

    def test_decimal_values_match_percent_format(self, tmp_path):
        # short decimals end in zeros at every digit position; the grid's
        # values are spaced by steps with long binary expansions
        rng = np.random.default_rng(22)
        places = rng.integers(0, 18, size=50_000)
        short = np.round(rng.uniform(-1, 1, places.size) * 10.0**places) / 10.0**places
        column = np.concatenate([short * 10.0 ** rng.integers(-8, 20, size=places.size),
                                 np.linspace(-3.0, 7.0, 10_001)])
        got, want = self._cells(tmp_path, column)
        assert got == want

    def test_exact_ties_round_half_even(self, tmp_path):
        # the 18th significant digit is an exact 5: Python's % rounds to even
        ties = np.array([1234567890123456.75, 1234567890123456.25, -1234567890123456.75,
                         123456789012345.125, 123456789012345.375, 12345678901234.0625,
                         (2**53 - 1) / 4])
        got, want = self._cells(tmp_path, ties)
        assert got == want
        assert got[:2] == [b"1234567890123456.8", b"1234567890123456.2"]

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)] + [1e250, 1e-250])
        column = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        got, want = self._cells(tmp_path, np.concatenate([column, -column]))
        assert got == want

    def test_fixed_scientific_switch(self, tmp_path):
        column = np.array([9.9999999999999991e-05, 1e-4, 1e-5, 0.00012345, 1e16, 1e17,
                           99999999999999984.0, 1.2345678901234567e16, 123.0, 0.5])
        got, want = self._cells(tmp_path, column)
        assert got == want
        assert got[:2] == [b"9.9999999999999991e-05", b"0.0001"]
        assert got[4:6] == [b"10000000000000000", b"1e+17"]

    def test_special_values(self, tmp_path):
        column = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310,
                                  np.finfo(float).tiny, -np.finfo(float).max],
                                 _NAN_BITS.view(np.float64)])
        got, want = self._cells(tmp_path, column)
        assert got == want
        assert got[:4] == [b"0", b"-0", b"inf", b"-inf"]

    @pytest.mark.parametrize("column", [
        np.array([10**17 - 1, -(10**17 - 1), 10**17, -10**17, -2**63, 2**63 - 1, 0, -7]),
        np.array([2**64 - 1, 10**17, 10**17 - 1, 0], dtype=np.uint64),
        np.array([True, False]),
    ], ids=["int64", "uint64", "bool"])
    def test_integer_extremes(self, tmp_path, column):
        got, want = self._cells(tmp_path, column)
        assert got == want

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_every_digit_count_before_the_point(self, tmp_path, dtype):
        # the widest cell of a column sets how many words its cells take;
        # columns of non-negative values widest at each digit count, alone
        # and after a one-digit column
        for digits in range(1, 18):
            widest = int("12345678901234567"[:digits])
            column = np.array([widest, 7, 10 ** (digits - 1)], dtype=dtype)
            got, want = self._cells(tmp_path, column)
            assert got == want
            new, old = self._both(tmp_path, ["a", "b"], [np.ones(3, dtype), column])
            assert new == old
        got, _ = self._cells(tmp_path, np.array([12345678.0]))
        assert got == [b"12345678"]
        new, _ = self._both(tmp_path, ["a", "b"], [np.array([1.0]), np.array([12345678.0])])
        assert new == b"a,b\n1,12345678\n"

    def test_g2s_sized_table_memory_bounded(self, tmp_path):
        # tracemalloc peak of writing an 80,400 x 7 table shaped like
        # g2s-grid's correlations.csv (two +/-1 columns, two time columns,
        # three all-distinct float columns): 1.56 MB for the former
        # 4096-row text blocks, 0.93 MB for 256 KiB word blocks.
        import tracemalloc

        n = 80_400
        rng = np.random.default_rng(2)
        i, j = np.triu_indices(200)
        t = np.linspace(0.0, 20.0, 200)
        columns = [np.tile([1, 1, -1, -1], n // 4), np.tile([1, -1, 1, -1], n // 4),
                   np.repeat(t[i], 4), np.repeat(t[j], 4), *rng.normal(size=(3, n))]
        harness.write_csv(tmp_path / "warm.csv", list("abcdefg"), [columns])
        tracemalloc.start()
        try:
            harness.write_csv(tmp_path / "big.csv", list("abcdefg"), [columns])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert (tmp_path / "big.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

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
            harness.write_csv(tmp_path / "x.csv", ["a", "b"], [[np.arange(3), np.arange(4)]])
        with pytest.raises(ValueError):
            harness.write_csv(tmp_path / "x.csv", ["a", "b"], [[np.arange(3)]])
        with pytest.raises(ValueError):  # each block is checked as it is drawn
            harness.write_csv(tmp_path / "x.csv", ["a", "b"],
                              iter([[np.arange(3), np.arange(3)], [np.arange(2), np.arange(3)]]))

    def test_dump_matches_ensemble(self, tmp_path):
        # oracle: the seeded ensemble, one row per (trajectory, step)
        from gravcat import measurement as ms

        payload = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=4,
                                      output_dir=tmp_path / "o"))
        sched = ms.MeasurementSchedule(tau=FORCE_CFG["force.tau"],
                                       n_steps=FORCE_CFG["force.steps"], nu=FORCE_CFG["force.nu"])
        blocks = ms.sample_trajectories(sched, FORCE_CFG["force.count"], 4)
        readings = ms.unpack_readings(np.concatenate(list(blocks)), sched.n_steps + 1)
        rows = ((i, step, readings[i, step])
                for i in range(readings.shape[0]) for step in range(readings.shape[1]))
        write_csv_rows_oracle(tmp_path / "dump.csv", ["trajectory_id", "step", "reading"], rows)
        assert (tmp_path / "o" / "trajectories.csv").read_bytes() == \
            (tmp_path / "dump.csv").read_bytes()

    def test_dump_index_columns_match_int64_route(self, tmp_path):
        # the dump, whose index columns are made a block of rows at a time,
        # prints as write_csv prints the whole table with int64 id and step
        # columns
        from gravcat import measurement as ms

        payload = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=6,
                                      output_dir=tmp_path / "o"))
        sched = ms.MeasurementSchedule(tau=FORCE_CFG["force.tau"],
                                       n_steps=FORCE_CFG["force.steps"], nu=FORCE_CFG["force.nu"])
        blocks = ms.sample_trajectories(sched, FORCE_CFG["force.count"], 6)
        readings = ms.unpack_readings(np.concatenate(list(blocks)), sched.n_steps + 1)
        count, length = readings.shape
        harness.write_csv(tmp_path / "wide.csv", ["trajectory_id", "step", "reading"],
                          [[np.repeat(np.arange(count, dtype=np.int64), length),
                            np.tile(np.arange(length, dtype=np.int64), count), readings.ravel()]])
        assert (tmp_path / "o" / "trajectories.csv").read_bytes() == \
            (tmp_path / "wide.csv").read_bytes()

    def test_dump_of_trajectories_longer_than_a_block(self, tmp_path):
        # 11,001 readings a trajectory: one trajectory is more rows than a
        # writer block holds
        from gravcat import measurement as ms

        cfg = {**FORCE_CFG, "force.steps": 11000, "force.count": 100}
        payload = {**cfg, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", payload, seed=5,
                                      output_dir=tmp_path / "o"))
        sched = ms.MeasurementSchedule(tau=cfg["force.tau"], n_steps=cfg["force.steps"],
                                       nu=cfg["force.nu"])
        blocks = ms.sample_trajectories(sched, cfg["force.count"], 5)
        readings = ms.unpack_readings(np.concatenate(list(blocks)), sched.n_steps + 1)
        assert readings.shape[1] > harness._block_rows([np.dtype(np.int64)] * 2
                                                       + [readings.dtype])
        rows = ((i, step, readings[i, step])
                for i in range(readings.shape[0]) for step in range(readings.shape[1]))
        write_csv_rows_oracle(tmp_path / "dump.csv", ["trajectory_id", "step", "reading"], rows)
        assert (tmp_path / "o" / "trajectories.csv").read_bytes() == \
            (tmp_path / "dump.csv").read_bytes()

    def test_empty_header_is_bare_line(self, tmp_path):
        assert harness.write_csv(tmp_path / "x.csv", [], []).read_bytes() == b"\n"

    def test_dump_memory_bounded(self, tmp_path):
        # tracemalloc peak of a whole 2000 x 50 dumping run (102,000 rows,
        # 29 writer blocks of 3640 rows): 2.1 MB measured in a fresh
        # process (2.0 MB with 4096-row text blocks), of which numpy.random
        # and numpy.fft, first imported by the run, take 0.8 MB; the int64
        # id and step columns exist for one block at a time (58 kB).  The row-list writer the block writer replaced
        # peaked at 8.4 MB.  At 20,000 x 200 the same run peaks at 12 MB
        # against that writer's 348 MB, but takes a minute under tracemalloc.
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


class TestIndexColumns:
    """An IndexColumn(codes, values) writes the bytes its plain column
    values[codes] writes, and the bytes the row oracle writes."""

    VALUES = {
        "float64": np.concatenate([[np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                                    -1e-300, 0.1, 1.0 / 3.0, 12345678.0, 1e16, 1e17,
                                    9.9999999999999991e-05, 1234567890123456.75,
                                    1234567890123456.25, -123456789012345.125],
                                   _NAN_BITS.view(np.float64)]),
        "int64": np.array([0, -1, 7, 10**17 - 1, -(10**17), 2**63 - 1, -2**63]),
        "uint64": np.array([0, 1, 2**63, 2**63 + 12345, 2**64 - 1, 10**17], dtype=np.uint64),
        "bool": np.array([True, False]),
        "float32": np.array([0.1, -2.5, np.inf, np.nan, 3.4e38, 1e-45, -0.0], dtype=np.float32),
    }

    @staticmethod
    def _check(tmp_path, header, blocks):
        """write_csv of `blocks` (a list of blocks) equals write_csv of the
        same blocks with each index column replaced by values[codes], and
        the row oracle over those plain columns."""
        plain = [[c.values[c.codes] if isinstance(c, harness.IndexColumn) else c for c in block]
                 for block in blocks]
        got = harness.write_csv(tmp_path / "indexed.csv", header, iter(blocks)).read_bytes()
        want = harness.write_csv(tmp_path / "plain.csv", header, plain).read_bytes()
        rows = [row for block in plain for row in zip(*block)]
        write_csv_rows_oracle(tmp_path / "rows.csv", header, rows)
        assert got == want == (tmp_path / "rows.csv").read_bytes()
        return got

    @pytest.mark.parametrize("kind", sorted(VALUES))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_matches_gathered_column(self, tmp_path, kind, position):
        # repeated, unordered codes, every value used; the index column
        # first (its cells take the newline) or later (they take the comma)
        values = self.VALUES[kind]
        rng = np.random.default_rng(position)
        codes = rng.permutation(np.concatenate([np.arange(values.size),
                                                rng.integers(0, values.size, 3 * values.size)]))
        columns = [rng.normal(size=codes.size), np.arange(codes.size) - 5]
        columns.insert(position, harness.IndexColumn(codes, values))
        self._check(tmp_path, ["a", "b", "c"], [columns])

    def test_code_dtypes(self, tmp_path):
        values = self.VALUES["float64"]
        for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
            codes = np.arange(values.size)[::-1].astype(dtype)
            self._check(tmp_path, ["v", "w"], [[harness.IndexColumn(codes, values), codes]])

    def test_tables_that_cross_block_boundaries(self, tmp_path):
        # two index columns into one values array and one into another,
        # over blocks longer than a writer block, then a short block
        values, labels = np.linspace(-3.0, 7.0, 257), np.array([1, -1])
        n = 2 * harness._block_rows([np.dtype(float)] * 3 + [np.dtype(np.int64)]) + 3
        rng = np.random.default_rng(5)

        def block(size):
            return [harness.IndexColumn(rng.integers(0, 257, size), values),
                    harness.IndexColumn(rng.integers(0, 257, size), values),
                    harness.IndexColumn(rng.integers(0, 2, size), labels), rng.normal(size=size)]

        got = self._check(tmp_path, ["x", "p", "a", "w"], [block(n), block(n), block(7)])
        assert got.count(b"\n") == 2 * n + 7 + 1

    def test_shared_values_rendered_once_per_block(self, tmp_path, monkeypatch):
        # two index columns into one values object, over three blocks
        sizes, cell_words = [], harness._cell_words
        monkeypatch.setattr(harness, "_cell_words", lambda c: sizes.append(c.size) or cell_words(c))
        values = np.linspace(-1.0, 1.0, 7)
        blocks = [[harness.IndexColumn(np.arange(7), values),
                   harness.IndexColumn(np.arange(7)[::-1], values)]] * 3
        harness.write_csv(tmp_path / "once.csv", ["a", "b"], blocks)
        assert sizes == [7, 7, 7]
        assert self._check(tmp_path, ["a", "b"], blocks) == (tmp_path / "once.csv").read_bytes()

    def test_empty_table(self, tmp_path):
        empty = np.array([], dtype=np.int64)
        for values in (self.VALUES["float64"], np.array([])):
            got = self._check(tmp_path, ["v", "t"], [[harness.IndexColumn(empty, values),
                                                      np.array([])]])
            assert got == b"v,t\n"

    @pytest.mark.parametrize("codes,values", [
        (np.array([0.0, 1.0]), np.arange(3.0)),
        (np.array([True, False]), np.arange(3.0)),
        (np.array([0, 3]), np.arange(3.0)),
        (np.array([-1, 0]), np.arange(3.0)),
        (np.array([0], dtype=np.uint64), np.array([])),
        (np.array([[0, 1]]), np.arange(3.0)),
        (np.array([0, 1]), np.arange(6.0).reshape(2, 3)),
        (np.array([0, 1]), np.array([1j, 2j])),
    ], ids=["float-codes", "bool-codes", "past-the-end", "negative", "into-empty", "2-D-codes",
            "2-D-values", "complex-values"])
    def test_bad_index_column_rejected(self, codes, values):
        with pytest.raises(ValueError):
            harness.IndexColumn(codes, values)

    def test_index_column_of_another_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.write_csv(tmp_path / "x.csv", ["a", "b"],
                              [[harness.IndexColumn(np.arange(3), np.arange(3.0)), np.arange(4)]])

    def test_g2s_sized_indexed_table_memory_bounded(self, tmp_path):
        # the g2s-grid table as the runner hands it over: labels and times
        # as index columns, drawn in the runner's blocks of pairs
        import tracemalloc

        i, j = np.triu_indices(200)
        times, labels = np.linspace(0.0, 20.0, 200), np.array([1, -1])
        rng = np.random.default_rng(2)
        rest = rng.normal(size=(3, 4 * i.size))
        per = 1598

        def blocks():
            for lo in range(0, i.size, per):
                k = slice(lo, lo + per)
                size = i[k].size
                yield [harness.IndexColumn(np.tile([0, 0, 1, 1], size), labels),
                       harness.IndexColumn(np.tile([0, 1, 0, 1], size), labels),
                       harness.IndexColumn(np.repeat(i[k], 4), times),
                       harness.IndexColumn(np.repeat(j[k], 4), times),
                       *rest[:, 4 * lo : 4 * (lo + size)]]

        harness.write_csv(tmp_path / "warm.csv", list("abcdefg"), blocks())
        tracemalloc.start()
        try:
            harness.write_csv(tmp_path / "big.csv", list("abcdefg"), blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
        assert (tmp_path / "big.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


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
        assert man["config"]["g2s.chi"] == 0.0
        assert man["config"]["grid.t_count"] == 4

    def test_config_file_must_exist(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_readme_key_table_is_the_schemas(self):
        # the README's config-key table, row for row, is SCHEMAS spelled
        # out: key, type, default and domain as the ConfigError names it
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| key | type | default | domain |") + 2
        table = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                 for line in lines[start:lines.index("", start)]]
        expected = []
        for schema in SCHEMAS.values():
            for key, (typ, default, domain) in schema.items():
                spelled = (f"one of {domain}" if isinstance(domain, tuple)
                           else f">= {domain}" if isinstance(domain, int) else domain)
                shown = ("required" if default is harness._REQUIRED
                         else "none" if default is None else repr(default))
                expected.append([key, typ.__name__, shown, spelled])
        assert table == expected

    @pytest.mark.parametrize("experiment,key,value,domain", [
        ("g2s-correlations", "g2s.chi", float("inf"), "finite"),
        ("force-trajectories", "force.tau", 0.0, "> 0"),
        ("force-trajectories", "probe.y", -1e-300, ">= 0"),
        ("force-trajectories", "force.f0", float("nan"), "> 0"),
        ("force-trajectories", "force.dump_trajectories", 7, "one of (0, 1)"),
        ("jc-suite", "jc.dim", 1, ">= 2"),
        ("density-suite", "density.state", "dog", "one of ('gaussian', 'cat')"),
        ("density-suite", "seed", -1, ">= 0"),
        # the keys whose library records no longer check their own ranges
        ("g2s-correlations", "g2s.nu", -1.0, ">= 0"),
        ("g2s-correlations", "g2s.nu", float("nan"), ">= 0"),
        ("g2s-correlations", "g2s.m", 0.0, "> 0"),
        ("g2s-correlations", "g2s.ell", float("inf"), "> 0"),
        ("force-trajectories", "force.nu", float("inf"), ">= 0"),
        ("force-trajectories", "probe.G", float("nan"), "> 0"),
        ("force-trajectories", "probe.L", float("inf"), "> 0"),
        ("density-suite", "density.sigma", -1.0, "> 0"),
        ("density-suite", "density.s_x", float("inf"), "> 0"),
    ])
    def test_out_of_domain_value_names_its_domain(self, experiment, key, value, domain):
        with pytest.raises(ConfigError) as info:
            resolve_config(experiment, {**FUZZ_BASE[experiment], key: value})
        assert str(info.value) == f"config key {key} must be {domain}, got {value!r}"

    def test_domain_is_checked_before_the_regime(self, tmp_path):
        # a count below 100 exits 3 alone, but 2 beside a key out of its domain
        for payload, code in (({**FORCE_CFG, "force.count": 10}, 3),
                              ({**FORCE_CFG, "force.count": 10, "force.max_lag": -1}, 2)):
            cfg = write_config(tmp_path, "c.json", payload)
            assert main(["force-trajectories", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == code

    def test_empty_time_grid_makes_no_files(self, tmp_path):
        # refused by its schema domain, before any output exists
        payload = {**G2S_CFG, "grid.t_count": 0}
        with pytest.raises(ConfigError, match="grid.t_count must be >= 1, got 0"):
            resolve_config("g2s-correlations", payload, output_dir=tmp_path / "out")
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


class TestManifest:
    def test_checksums_match_files(self, tmp_path):
        cfg = resolve_config("g2s-correlations", G2S_CFG, seed=1, output_dir=tmp_path)
        man = run_experiment(cfg)
        for entry in man["artifacts"]:
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

    def test_writers_return_the_digest_of_the_bytes_written(self, tmp_path):
        # two writer blocks of rows, and a JSON document
        csv = harness.write_csv(tmp_path / "a.csv", ["x", "n"],
                                [[np.linspace(0.0, 1.0, 5000), np.arange(5000)]])
        meta = harness.write_json(tmp_path / "m.json", {"a": [1.5, float("nan")], "b": "c"})
        for art, name in ((csv, "a.csv"), (meta, "m.json")):
            assert art == tmp_path / name
            assert art.sha256 == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    def test_artifact_changed_after_writing_is_internal_error(self, tmp_path, monkeypatch,
                                                              capfd):
        # one digit of correlations.csv changes on disk after its writer
        # hashed it, the file keeping its size: the run fails with exit 4,
        # and its directory holds no manifest and no staging directory
        write_hashed = harness._write_hashed

        def tampered(path, chunks):
            art = write_hashed(path, chunks)
            if path.name == "correlations.csv":
                data = bytearray(path.read_bytes())
                data[-2] ^= 1
                path.write_bytes(bytes(data))
            return art

        monkeypatch.setattr(harness, "_write_hashed", tampered)
        with pytest.raises(InternalCheckError, match="correlations.csv"):
            run_experiment(resolve_config("g2s-correlations", G2S_CFG, output_dir=tmp_path / "a"))
        assert list((tmp_path / "a").iterdir()) == []
        cfg = write_config(tmp_path, "c.json", G2S_CFG)
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 4
        err = capfd.readouterr().err.splitlines()
        assert err[0].startswith("gravcat: internal invariant failure")
        assert err[1] == TRACEBACK_HEAD, err
        assert list((tmp_path / "b").iterdir()) == []

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
        names = {e["name"] for e in man["artifacts"]}
        for name in names:
            if name.endswith(".csv"):
                header, rows = read_csv(tmp_path / name)
                assert all(h.strip() for h in header)
                assert rows


def snapshot(outdir: Path) -> dict:
    """Every entry of `outdir`, hidden ones included: a file's bytes, or
    None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in outdir.iterdir()}


class TestRunDirectory:
    @pytest.mark.parametrize("payload,code", [
        ({**FORCE_CFG, "bad.key": 1}, 2),
        ({**FORCE_CFG, "force.count": 10}, 3),
    ])
    def test_rejected_rerun_leaves_the_previous_run(self, tmp_path, payload, code):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "ok.json", {**FORCE_CFG, "force.dump_trajectories": 1})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(out)]) == 0
        before = snapshot(out)
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(out)]) == code
        assert snapshot(out) == before

    def test_failure_mid_write_leaves_the_previous_run(self, tmp_path, monkeypatch, capfd):
        # 100 times make 5050 (t1, t2) pairs, four closed-form calls of at
        # most 1598 pairs; the third raises with the rows of two calls in
        # the staging directory's correlations.csv
        from gravcat import two_state as ts

        out = tmp_path / "o"
        payload = {"g2s.nu": 0.3, "grid.t_max": 20.0, "grid.t_count": 100}
        run_experiment(resolve_config("g2s-correlations", {**payload, "g2s.chi": 0.5},
                                      output_dir=out))
        before = snapshot(out)
        corr, staged = ts.two_time_correlations, []

        def failing(*args):
            staged.append(sorted(p.name for p in out.glob(".gravcat-*/*")))
            if len(staged) == 3:
                raise RuntimeError("closed form failed")
            return corr(*args)

        monkeypatch.setattr(ts, "two_time_correlations", failing)
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(out)]) == 4
        assert staged[-1] == ["correlations.csv", "mean_density.csv"]
        err = capfd.readouterr().err.splitlines()
        assert err[:2] == ["gravcat: internal failure: closed form failed", TRACEBACK_HEAD], err
        assert snapshot(out) == before

    def test_rerun_deletes_stale_artifacts_only(self, tmp_path):
        # trajectories.csv, listed by the dumping run's manifest, goes; a
        # file no manifest lists stays
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        dump = {**FORCE_CFG, "force.dump_trajectories": 1}
        run_experiment(resolve_config("force-trajectories", dump, seed=1, output_dir=out))
        assert (out / "trajectories.csv").is_file()
        man = run_experiment(resolve_config("force-trajectories", FORCE_CFG, seed=1,
                                            output_dir=out))
        names = [e["name"] for e in man["artifacts"]]
        assert "trajectories.csv" not in names
        assert sorted(snapshot(out)) == sorted(names + ["manifest.json", "notes.txt"])
        assert (out / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize("old", [
        {"artifacts": [{"name": n} for n in ("../x", "sub/x", ".hidden", "manifest.json", "",
                                             "sub", "/x")]},
        {"artifacts": [{"name": ["x"]}]},
        {"artifacts": {"x": 1}},
        [{"name": "x"}],
        "{not json",
    ], ids=["unsafe-names", "list-name", "dict-artifacts", "list-manifest", "not-json"])
    def test_old_manifest_deletes_no_unsafe_name(self, tmp_path, old):
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "x", out / "sub" / "x", out / ".hidden", out / "x"]
        for path in kept:
            path.write_text("kept")
        (out / "manifest.json").write_text(old if isinstance(old, str) else json.dumps(old))
        run_experiment(resolve_config("g2s-correlations", G2S_CFG, output_dir=out))
        assert all(path.read_text() == "kept" for path in kept)
        assert json.loads((out / "manifest.json").read_text())["experiment"] == "g2s-correlations"


class TestDeterminism:
    def _artifact_bytes(self, outdir: Path, man):
        return {e["name"]: (outdir / e["name"]).read_bytes() for e in man["artifacts"]}

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
        man_a.pop("duration_seconds"), man_b.pop("duration_seconds")
        assert man_a == man_b

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


# The line that opens a Python traceback, which exit 4 prints after its own.
TRACEBACK_HEAD = "Traceback (most recent call last):"


def refuse(monkeypatch, target):
    """Make gravcat's `module.name` raise at once, so a run that gets past
    its size bound cannot allocate the gigabytes that call would."""
    module, name = target.split(".")

    def refused(*args, **kwargs):
        raise RuntimeError(f"{target} reached")

    monkeypatch.setattr(importlib.import_module(f"gravcat.{module}"), name, refused)


# Variables that set the BLAS pool's size or its workers' spin.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
             "OPENBLAS_THREAD_TIMEOUT")


def run_fresh(code: str, environ=os.environ) -> str:
    """Last stdout line of `python -c code` in a fresh interpreter, which
    sees gravcat but none of the modules this test process has loaded, run
    in `environ`."""
    env = {**environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(gravcat.__file__).parents[1]), environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


class TestCli:
    def test_import_loads_no_scipy(self):
        code = ("import gravcat, gravcat.cli, sys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert run_fresh(code) == "[]"

    def test_idle_blas_workers_sleep(self):
        # at OpenBLAS's default timeout each idle worker of its pool
        # busy-waits 2^28 cycles once numpy loads it: 0.06 s of CPU on a
        # 2-CPU machine, which the CLI's timeout of 2^24 cycles brings to
        # 0.004 s.  A 1-CPU machine starts no workers.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        code = ("import resource, time; import gravcat.cli; time.sleep(0.3); "
                "r = resource.getrusage(resource.RUSAGE_SELF); "
                "print(r.ru_utime + r.ru_stime - time.thread_time())")
        assert float(run_fresh(code, env)) < 0.02

    def test_user_blas_timeout_is_kept_and_changes_no_artifact(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", JC_CFG)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        runs = {}
        for timeout in (None, "28"):
            out = tmp_path / f"o{timeout}"
            code = ("import json, os; from gravcat.cli import main; "
                    f"assert main(['jc-suite', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0; "
                    f"m = json.load(open({str(out / 'manifest.json')!r})); "
                    "print(json.dumps([os.environ['OPENBLAS_THREAD_TIMEOUT'], m['artifacts'], "
                    "m['results']]))")
            extra = {} if timeout is None else {"OPENBLAS_THREAD_TIMEOUT": timeout}
            runs[timeout] = json.loads(run_fresh(code, {**env, **extra}))
        assert runs[None][0] == "24" and runs["28"][0] == "28"
        assert runs[None][1:] == runs["28"][1:]

    def test_density_suite_loads_no_scipy(self, tmp_path):
        # a whole default density-suite run
        cfg = write_config(tmp_path, "c.json", {})
        code = ("import sys; from gravcat.cli import main; "
                f"code = main(['density-suite', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'o')!r}]); "
                "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert run_fresh(code) == "0 []"

    # The library modules each run loads besides gravcat, gravcat.cli and
    # gravcat.harness (no experiment: the import alone), on the configs of
    # the CI console-script step; scipy is never among them.
    @pytest.mark.parametrize("experiment,payload,modules", [
        (None, None, []),
        ("g2s-correlations", G2S_CFG, ["two_state"]),
        ("force-trajectories", {"force.nu": 0.5, "force.tau": 0.2, "force.steps": 40,
                                "force.count": 400}, ["measurement"]),
        ("jc-suite", JC_CFG, ["fock", "jc"]),
        ("density-suite", {"density.sigma": 1.0},
         ["density", "histories", "states", "wigner"]),
    ])
    def test_run_imports_only_its_experiments_modules(self, tmp_path, experiment, payload,
                                                      modules):
        code = "import sys; from gravcat.cli import main; "
        if experiment is not None:
            cfg = write_config(tmp_path, "c.json", payload)
            code += (f"assert main([{experiment!r}, '--config', {str(cfg)!r}, "
                     f"'--out', {str(tmp_path / 'o')!r}]) == 0; ")
        code += "print(sorted(m for m in sys.modules if m.startswith(('gravcat', 'scipy'))))"
        expected = ["gravcat", "gravcat.cli", "gravcat.harness"] + [f"gravcat.{m}" for m in modules]
        assert run_fresh(code) == str(sorted(expected))

    def test_cat_separation_sign_writes_the_same_artifacts(self, tmp_path):
        # the branches sit at +/- |L| / 2 whatever the sign of L, and
        # wigner_meta.json reports the separation |L| of the state run
        digests, results = [], []
        for L in (6.0, -6.0):
            out = tmp_path / f"o{L}"
            cfg = write_config(tmp_path, f"c{L}.json", {"density.state": "cat", "density.L": L})
            assert main(["density-suite", "--config", str(cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append({a["name"]: a["sha256"] for a in manifest["artifacts"]})
            results.append(manifest["results"])
            assert json.loads((out / "wigner_meta.json").read_text())["state"]["separation"] == 6.0
        assert len(digests[0]) == 6
        assert digests[0] == digests[1] and results[0] == results[1]

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

    @pytest.mark.parametrize("payload,dropped", [
        ({"density.state": "cat", "density.sigma": 0.1}, True),
        ({"density.state": "cat", "density.sigma": 1.0, "density.L": 6.0}, False),
    ])
    def test_manifest_counts_dropped_profile_points(self, tmp_path, payload, dropped):
        # the narrow cat drops the points between its branches; the
        # density-phase-space benchmark config drops none
        man = run_experiment(resolve_config("density-suite", payload, output_dir=tmp_path))
        _, rows = read_csv(tmp_path / "fluctuation_profile.csv")
        count = man["results"]["profile_points_dropped"]
        assert count == 101 - len(rows)
        assert (count > 0) == dropped
        assert json.loads((tmp_path / "manifest.json").read_text())["results"][
            "profile_points_dropped"] == count

    @pytest.mark.parametrize("sigma", [1e-4, 1e-5])
    def test_narrow_packet_runs_in_bounded_memory(self, tmp_path, sigma):
        # the closed-form defect needs no history grid; an FFT grid spaced
        # by s_x / 4 over the spread packet takes 2^22 points at sigma = 1e-4
        # and 2^25, beyond MAX_GRID_ELEMENTS, at 1e-5
        import tracemalloc

        cfg = write_config(tmp_path, "c.json", {"density.sigma": sigma})
        tracemalloc.start()
        try:
            code = main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 32 * 2**20
        _, rows = read_csv(tmp_path / "o" / "kolmogorov_defect.csv")
        assert len(rows) == 4 and all(np.isfinite(float(r[2])) for r in rows)

    @pytest.mark.parametrize("text,message", [
        ('{"g2s.nu": 1.0,', "config is not valid JSON"),
        # json refuses integers past 4300 digits with a ValueError (was exit 4)
        ('{"g2s.nu": 1' + "0" * 5000 + "}", "config is not valid JSON"),
        ("[1, 2]", "config must be a JSON object"),
        ('{"experiment": "jc-suite", "g2s.nu": 1.0}', "config names experiment 'jc-suite'"),
        (json.dumps({**G2S_CFG, "g2s.c_plus_re": 0.0}), "well amplitudes are both zero"),
    ], ids=["invalid-json", "5001-digit-integer", "not-an-object", "other-experiment",
            "zero-amplitudes"])
    def test_malformed_config_is_config_error(self, tmp_path, capfd, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"gravcat: config error: {message}"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind,reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("unreadable", "Permission denied"),
    ])
    def test_unreadable_config_path_is_config_error(self, tmp_path, capfd, monkeypatch, kind,
                                                    reason):
        # a directory was an internal failure ("[Errno 21] Is a directory", exit 4);
        # a file the process may not read is simulated, since root reads any file
        cfg = tmp_path / "c.json"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "unreadable":
            cfg.write_text(json.dumps(G2S_CFG))

            def refuse(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["g2s-correlations", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capfd.readouterr().err.splitlines()
        assert err == [f"gravcat: config error: cannot read config {cfg}: {reason}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("parts", [
        (1e308, 1e308, 1e308, 1e308),
        (1.7e308, 1.7e308, 0.0, 0.0),
        (5e-324, 5e-324, 0.0, 0.0),
    ], ids=["overflowing", "overflowing-abs", "subnormal"])
    def test_amplitude_norm_outside_normal_floats_is_regime_error(self, tmp_path, capfd, parts):
        # the norm overflowed with three lines of RuntimeWarning, then "squared
        # norm 0.0" (exit 2); abs(complex) of the 1.7e308 parts raised (exit 4);
        # the subnormal one gave "squared norm 2.0000000000000004" (exit 2)
        keys = ("g2s.c_plus_re", "g2s.c_plus_im", "g2s.c_minus_re", "g2s.c_minus_im")
        cfg = write_config(tmp_path, "c.json", {**G2S_CFG, **dict(zip(keys, parts))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["g2s-correlations", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and "amplitude norm" in err[0] and "not a normal float" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("payload", [
        {"jc.omega": 1e300, "jc.nu_over_omega": 1e10},
        {"jc.omega": 1e100, "jc.nu_over_omega": 1e300},
        {"jc.omega": 1e100, "jc.g_over_omega": 1e300},
    ], ids=["nu-and-omega-cubed", "nu", "g"])
    def test_derived_jc_overflow_is_regime_error(self, tmp_path, capfd, payload):
        # nu = nu_over_omega omega or g = g_over_omega omega overflows; JCParams
        # refused them as a config error (exit 2), though each key is in its domain
        cfg = write_config(tmp_path, "c.json", {**JC_CFG, **payload})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].endswith(": nu, g, omega^3 or 2 |zeta_0|^2 omega^3 is not finite"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,payload,code", [
        ("force-trajectories", {**FORCE_CFG, "force.count": 10**400}, 3),
        ("force-trajectories", {**FORCE_CFG, "force.steps": 10**400}, 3),
        ("force-trajectories", {**FORCE_CFG, "force.steps": -10**400}, 2),
        ("jc-suite", {"jc.dim": 10**400}, 3),
        ("jc-suite", {"jc.dim": -10**400}, 2),
        ("density-suite", {"density.state": 10**400}, 2),
    ], ids=["force-count", "force-steps", "negative-force-steps", "jc-dim", "negative-jc-dim",
            "density-state"])
    def test_huge_integer_gives_a_short_message(self, tmp_path, capfd, experiment, payload,
                                                code):
        # a 401-digit force.count was printed whole, a 516-character line
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and "e+400" in err[0] and len(err[0]) < 200, err

    def test_output_directory_without_out(self, tmp_path, monkeypatch):
        # ./gravcat_out without --out or an output_dir key; the key without
        # --out; --out over the key
        monkeypatch.chdir(tmp_path)
        plain = write_config(tmp_path, "plain.json", G2S_CFG)
        keyed = write_config(tmp_path, "keyed.json", {**G2S_CFG, "output_dir": "from-key"})
        for argv, out in ((["--config", str(plain)], "gravcat_out"),
                          (["--config", str(keyed)], "from-key"),
                          (["--config", str(keyed), "--out", "from-flag"], "from-flag")):
            assert main(["g2s-correlations", *argv]) == 0
            assert (tmp_path / out / "manifest.json").is_file()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "from-flag", "from-key", "gravcat_out"]

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

    @pytest.mark.parametrize("error,summary", [
        (InternalCheckError("digests differ"), "internal invariant failure: digests differ"),
        (RuntimeError("runner broke"), "internal failure: runner broke"),
    ])
    def test_internal_failure_keeps_its_traceback(self, tmp_path, capfd, monkeypatch, error,
                                                  summary):
        # exit 4 prints its summary line, then the traceback down to the raise
        def broken(cfg):
            raise error

        monkeypatch.setitem(harness._RUNNERS, "jc-suite", broken)
        cfg = write_config(tmp_path, "c.json", {})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capfd.readouterr().err.splitlines()
        assert err[:2] == [f"gravcat: {summary}", TRACEBACK_HEAD], err
        assert any(line.strip() == "raise error" for line in err), err
        assert err[-1].endswith(f"{type(error).__name__}: {error}"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim,g_over_omega", [
        (4, 0.5), (8, 0.7), (16, 1.0), (10**9, 1e5), pytest.param(10**400, 1e5, id="1e400-1e5")])
    def test_leaking_cutoff_is_regime_error(self, tmp_path, capfd, dim, g_over_omega):
        # D(2 zeta_0)|0> leaks 0.019, 9.7e-4 and 4.9e-6 past the first three
        # cutoffs; a |2 zeta_0|^2 <= dim / 4 rule let each run, with exit 0
        # and two to four TruncationInadequateWarnings.  The order this pins:
        # the size bound on D x D runs first, so the last two, which leak
        # 1, are refused by it before the leak is summed; at 10^400 the leak
        # took d log |w|^2 as a float and failed (exit 4)
        payload = {"jc.nu_over_omega": 0.05, "jc.nu_t_max": 1.0, "jc.dim": dim,
                   "jc.g_over_omega": g_over_omega}
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        first = "Fock cutoff" if dim < 10**4 else "jc.dim = "
        assert len(err) == 1 and err[0].startswith(f"gravcat: regime rejection: {first}"), err
        assert len(err[0]) < 200
        assert not (tmp_path / "o").exists()

    @settings(max_examples=160, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(SCHEMAS)).flatmap(_fuzzed_config))
    @example(case=("jc-suite", {"jc.nu_t_max": 1e-320}))  # a subnormal time step: exit 4
    # sizes past their bounds: np.linspace failed (exit 4), and a count past
    # the float range failed t_max / (samples - 1) or N tau (exit 4)
    @example(case=("g2s-correlations", {**G2S_CFG, "grid.t_count": 1e300}))
    @example(case=("jc-suite", {"jc.samples": 1e300}))
    @example(case=("jc-suite", {"jc.samples": 10**400}))
    @example(case=("jc-suite", {"jc.dim": 10**400}))  # the leak overflowed a float (exit 4)
    @example(case=("force-trajectories", {**FORCE_CFG, "force.steps": 10**400}))
    @example(case=("jc-suite", {"jc.nu_t_max": 1e-315, "jc.samples": 61}))
    @example(case=("density-suite", {"density.s_x": 1e-10}))  # wrote an inf correlator
    @example(case=("density-suite", {"density.s_x": 1e-100}))  # wrote a nan correlator
    @example(case=("jc-suite", {"jc.dim": 4, "jc.samples": 7, "jc.g_over_omega": 0.5,
                                "jc.nu_over_omega": 0.05, "jc.nu_t_max": 1.0}))
    @example(case=("jc-suite", {"jc.dim": 8, "jc.samples": 7, "jc.g_over_omega": 0.7,
                                "jc.nu_over_omega": 0.05, "jc.nu_t_max": 1.0}))
    @example(case=("jc-suite", {"jc.dim": 16, "jc.samples": 7, "jc.g_over_omega": 1.0,
                                "jc.nu_over_omega": 0.05, "jc.nu_t_max": 1.0}))
    def test_run_succeeds_cleanly_or_is_rejected(self, tmp_path_factory, case):
        # a run either exits 0 without a word on stderr or a warning, every
        # CSV value finite, or exits 2 or 3 with one stderr line and no
        # manifest; never 4
        experiment, payload = case
        tmp = tmp_path_factory.mktemp("run")
        cfg = write_config(tmp, "c.json", payload)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([experiment, "--config", str(cfg), "--out", str(tmp / "o")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and caught == [], (lines, [str(w.message) for w in caught])
            for path in (tmp / "o").glob("*.csv"):
                rows = path.read_text().splitlines()[1:]
                values = np.array([v for row in rows for v in row.split(",")], dtype=float)
                assert np.isfinite(values).all(), path.name
        else:
            assert code in (2, 3) and len(lines) == 1, (code, lines)
            assert not (tmp / "o").exists()

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
        ("jc.omega", 0.0),
        ("jc.omega", -1.0),
        ("jc.dim", 0),
        ("jc.dim", 1),
    ])
    def test_out_of_range_jc_value_is_config_error(self, tmp_path, key, value):
        # rejected by resolve_config against the SCHEMAS domains, before the runner
        cfg = write_config(tmp_path, "c.json", {**JC_CFG, key: value})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("payload", [
        {"jc.nu_over_omega": 5e-324},
        {"jc.omega": 5e-324},
        {**JC_CFG, "jc.nu_over_omega": 5e-324},
        {**JC_CFG, "jc.nu_t_max": 1e300, "jc.nu_over_omega": 1e-10},
        {"jc.omega": 1000, "jc.nu_over_omega": 1e-5, "jc.nu_t_max": 1e300},
        {**JC_CFG, "jc.nu_over_omega": 1e-5, "jc.nu_t_max": 1e10},
        {"jc.nu_t_max": 1e-320},
        {"jc.nu_t_max": 1e-315, "jc.samples": 61},
        {"jc.nu_t_max": 1e-310},
    ])
    def test_unbounded_jc_window_is_regime_error(self, tmp_path, payload):
        # t_max = nu_t_max / nu (or pi / omega at nu = 0) overflows to inf,
        # or is finite but puts the phases E t past 2^43 (1e307 and 1e17
        # here); or the step t_max / (samples - 1) is subnormal, and the
        # linspace times were not uniform (exit 4) or, at 1e-310, ran (exit 0)
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e300}),
        ("g2s-correlations", {**G2S_CFG, "g2s.ell": 1e300}),
        ("g2s-correlations", {**G2S_CFG, "g2s.ell": 1e-300}),
        ("g2s-correlations", {**G2S_CFG, "g2s.ell": 5e-324}),
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e200, "g2s.ell": 1e100}),
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e-160}),
        ("jc-suite", {**JC_CFG, "jc.omega": 1e300}),
        ("jc-suite", {**JC_CFG, "jc.g_over_omega": 1e300}),
        ("g2s-correlations", {"g2s.nu": 1.0, "grid.t_min": -1e308, "grid.t_max": 1e308,
                              "grid.t_count": 4}),
        ("g2s-correlations", {"g2s.nu": 1e308, "grid.t_max": 1e308, "grid.t_count": 4}),
        ("force-trajectories", {"force.nu": 1e308, "force.tau": 1e308, "force.steps": 10,
                                "force.count": 200}),
        # the fluctuation ratio's numerator m^2 |psi|^2 / ell^3 overflows at
        # the peak; the ratio, about 1 / (ell^3 |psi|^2), at the peak; the
        # ratio only in the tails, where the density is e^-32 of its peak
        ("density-suite", {"density.s_x": 2.574e-67, "density.m": 2.964e67}),
        ("density-suite", {"density.s_x": 9.755e-66, "density.sigma": 6.255e48}),
        ("density-suite", {"density.s_x": 1e-60, "density.sigma": 1e40}),
        # each term of an up-front scale check, outside the normal floats alone
        # (above: nu (t_max - t_min) at t_min -1e308, 2 |zeta_0|^2 omega^3 at
        # omega 1e300): g2s m^2, ell^6, m^2 / ell^6 and nu t
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e-155, "g2s.ell": 1e-3}),
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e-150, "g2s.ell": 2e-52}),
        ("g2s-correlations", {**G2S_CFG, "g2s.m": 1e100, "g2s.ell": 1e-40}),
        ("g2s-correlations", {"g2s.nu": 10.0, "grid.t_min": 1e308, "grid.t_max": 1e308,
                              "grid.t_count": 4}),
        # jc nu and the step t_max / (samples - 1)
        ("jc-suite", {**JC_CFG, "jc.omega": 1e100, "jc.nu_over_omega": 1e300}),
        ("jc-suite", {"jc.nu_t_max": 1e-310}),
        # density m^3, m / ell^3, m^2 / ell^2, (m s_x^2)^2 and the squared peak density
        ("density-suite", {"density.m": 1e110, "density.s_x": 1e20}),
        ("density-suite", {"density.m": 1e-60, "density.s_x": 1e83, "density.sigma": 1e14}),
        ("density-suite", {"density.m": 1e-95, "density.s_x": 1e65, "density.sigma": 1e-48}),
        ("density-suite", {"density.m": 1e100, "density.s_x": 1e100}),
        ("density-suite", {"density.sigma": 1e-60}),
    ])
    def test_out_of_range_scale_is_regime_error(self, tmp_path, capfd, experiment, payload):
        # a Python-float ** overflowed (OverflowError) or ell^6 underflowed
        # to a division by zero, both exit 4; m 1e-160 wrote m^2 / ell^6 as a
        # subnormal 9.9998886718268301e-321 with exit 0; t_max - t_min
        # overflowed in linspace (exit 4), nu t to cos(inf) (nan rows, exit
        # 0), and nu tau to sin(inf) with six warnings before an exit 3; the
        # fluctuation ratio wrote inf rows with a warning and exit 0
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gravcat: regime rejection: ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("payload,code", [
        ({"density.state": "cat", "density.L": 0.0}, 2),
        ({"density.sigma": 1e-300}, 3),
        ({"density.sigma": 5e-324}, 3),
        ({"density.sigma": 1e300}, 3),
        ({"density.m": 1e300}, 3),
        ({"density.s_x": 1e300}, 3),
        ({"density.s_x": 1e-300}, 3),
        ({"density.m": 1e-300}, 3),
        ({"density.m": 1e-100, "density.s_x": 1e-100}, 3),
        ({"density.m": 1e100, "density.s_x": 1e100}, 3),
        ({"density.m": 1e100, "density.s_x": 1e-100}, 3),
        ({"density.m": 1e-100, "density.sigma": 1e-150}, 3),
        ({"density.state": "cat", "density.L": 1e308}, 3),
        ({"density.state": "cat", "density.L": 1e300, "density.sigma": 1e-10}, 3),
        ({"density.sigma": 1e-60}, 3),
        ({"density.sigma": 1e-100}, 3),
        ({"density.sigma": 1e60}, 3),
        ({"density.state": "cat", "density.sigma": 1e-60, "density.L": 1e-59}, 3),
    ])
    def test_out_of_range_density_scale_is_rejected(self, tmp_path, capfd, payload, code):
        # a cat with no separation has coincident branches, and a Python-float
        # ** overflowed or a packet width underflowed to 0: each exited 4,
        # except m 1e100 at s_x 1e-100, which wrote inf and nan correlators;
        # a far cat's fringe count was an infinite float that int() refused
        # (exit 4), and the squared density of a packet narrower than 5e-52
        # overflowed with a RuntimeWarning (exit 0, centre points dropped);
        # wider than 8e50 it underflowed everywhere (exit 0, every point dropped)
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert got == code
        err = capfd.readouterr().err.splitlines()
        kind = "config error" if code == 2 else "regime rejection"
        assert len(err) == 1 and err[0].startswith(f"gravcat: {kind}: ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("payload,code", [
        ({"density.state": "cat", "density.L": 0.0}, 2),
        ({"density.state": "cat", "density.L": -5e-324}, 2),
        ({"density.state": "cat", "density.L": 1e-300}, 0),
        ({"density.state": "gaussian", "density.L": 0.0}, 0),
    ], ids=["cat-at-0", "cat-whose-half-separation-underflows", "cat-at-1e-300", "gaussian-at-0"])
    def test_only_a_cat_with_coincident_branches_is_config_error(self, tmp_path, capfd, payload,
                                                                  code):
        # |L| / 2 is 0 for the first two; a Gaussian ignores density.L
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capfd.readouterr().err.splitlines()
        assert err == ([] if code == 0 else
                       [f"gravcat: config error: density.L = {payload['density.L']!r}: "
                        "the cat's two branches coincide"])

    def test_wide_cat_gets_a_position_per_spread(self, tmp_path, capfd):
        # 257 positions over a cat 300 spreads wide missed each branch's bump
        # (normalization 1 - 5e-6, exit 3); 317 positions are one spread apart
        cfg = write_config(tmp_path, "c.json", {"density.state": "cat", "density.L": 300.0})
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capfd.readouterr().err == ""
        meta = json.loads((tmp_path / "o" / "wigner_meta.json").read_text())
        assert (meta["x_count"], meta["p_count"]) == (317, 2293)
        assert abs(meta["normalization"] - 1.0) < 1e-6

    def test_grid_of_a_wider_cat_is_bounded(self, tmp_path, capfd):
        # a position per spread and 8 momenta per fringe: 3017 x 22920 values
        cfg = write_config(tmp_path, "c.json", {"density.state": "cat", "density.L": 3000.0})
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert err == ["gravcat: regime rejection: a 3017 x 22920 phase-space grid exceeds "
                       "the bound of 8388608 elements"], err
        assert not (tmp_path / "o").exists()

    def test_unresolvable_fringes_give_a_short_message(self, tmp_path, capfd):
        # the momentum count the fringes need is a 201-digit integer here
        cfg = write_config(tmp_path, "c.json", {"density.state": "cat", "density.L": 1e200})
        assert main(["density-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gravcat: regime rejection: ")
        assert len(err[0]) < 200, err[0]

    @pytest.mark.parametrize("key,value", [
        ("force.nu", float("nan")),
        ("force.tau", float("inf")),
        ("force.f0", float("nan")),
        ("force.f0", 0.0),
        ("probe.y", float("nan")),
        ("probe.G", float("inf")),
        # a negative lag bound was taken as "all lags", and any nonzero dump
        # flag turned the dump on
        ("force.max_lag", -5),
        ("force.dump_trajectories", -3),
        ("force.dump_trajectories", 7),
    ])
    def test_non_finite_force_input_is_config_error(self, tmp_path, capfd, key, value):
        cfg = write_config(tmp_path, "c.json", {**FORCE_CFG, key: value})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gravcat: config error: ")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("payload", [
        {"force.tau": 1e-300},
        {"force.tau": 5e-324},
        {"force.tau": 1e300, "force.nu": 1e-300},
    ])
    def test_unresolvable_fit_window_is_regime_error(self, tmp_path, capfd, payload):
        # the fit's time column squares to 0 or inf: polyfit failed inside
        # LAPACK (exit 4), or at tau 1e300 returned a fitted rate of 0
        cfg = write_config(tmp_path, "c.json", {"force.nu": 0.5, "force.steps": 20,
                                                "force.count": 200, **payload})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gravcat: regime rejection: corr fit window")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("force.f0", 1e300),
        ("force.f0", 1e-160),
        ("probe.G", 1e300),
        ("probe.m", 1e300),
        ("probe.m0", 1e300),
        ("probe.L", 1e300),
        ("probe.y", 1e300),
        ("probe.L", 1e-300),
    ])
    def test_out_of_range_force_scale_is_regime_error(self, tmp_path, capfd, key, value):
        # f0 or f0^2 leaves the normal float range: OverflowError or
        # ZeroDivisionError gave exit 4, and f0 1e-160 a corr[0] of 0
        cfg = write_config(tmp_path, "c.json", {**FORCE_CFG, key: value})
        assert main(["force-trajectories", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "f0^2 is not a normal float" in capfd.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,payload,message,first_allocation", [
        # 100 (10^7 + 1)^2 = 1.0e16 > 2^53: a 1 GB ensemble whose lag sums
        # would no longer be exact integers
        ("force-trajectories", {**FORCE_CFG, "force.steps": 10**7, "force.count": 100},
         "count (N+1)^2 exceeds 2^53", "measurement.sample_trajectories"),
        # 10^12 one-word records pass the 2^53 bound (1.7e15) but would take
        # about 15 hours at the fastest measured rate
        ("force-trajectories", {**FORCE_CFG, "force.count": 10**12},
         "record words exceed 2^38", "measurement.sample_trajectories"),
        # at the default ratios the phase bound lets jc.dim 10^4 through (max
        # |E| t about 4.9e9), but one real D x D parity block takes 800 MB
        ("jc-suite", {"jc.dim": 10**4}, "D x D exceeds", "jc.pointer_state"),
        # np.linspace refused 1e300 points (exit 4) and would take 8 GB at 1e9
        ("g2s-correlations", {**G2S_CFG, "grid.t_count": 1e300},
         "2 t_count (t_count + 1) rows exceed", "two_state.mean_density"),
        ("jc-suite", {"jc.samples": 1e300}, "samples x 2D exceeds", "jc.pointer_state"),
    ])
    def test_oversized_run_exits_before_allocating(self, tmp_path, capfd, monkeypatch,
                                                   experiment, payload, message,
                                                   first_allocation):
        import tracemalloc

        refuse(monkeypatch, first_allocation)
        cfg = write_config(tmp_path, "c.json", payload)
        tracemalloc.start()
        try:
            code = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 2**20, (code, peak)
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gravcat: regime rejection: ")
        assert message in err[0]
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("experiment,payload,key,largest,first_allocation", [
        # 2 * 23169 * 23170 <= 2^30 rows < 2 * 23170 * 23171
        ("g2s-correlations", G2S_CFG, "grid.t_count", 23169, "two_state.mean_density"),
        # (32768, 2 * 64) rows hold 2^22 elements, jc.MAX_MATRIX_ELEMENTS
        ("jc-suite", {}, "jc.samples", 32768, "jc.pointer_state"),
        # a real (2048, 2048) parity block holds 2^22 elements
        ("jc-suite", {}, "jc.dim", 2048, "jc.pointer_state"),
        # count ceil((N+1)/64) words <= measurement.MAX_RECORD_WORDS = 2^38:
        # one word a record at 63 steps, two at 64
        ("force-trajectories", {**FORCE_CFG, "force.steps": 63}, "force.count", 2**38,
         "measurement.sample_trajectories"),
        ("force-trajectories", {**FORCE_CFG, "force.steps": 64}, "force.count", 2**37,
         "measurement.sample_trajectories"),
    ])
    def test_size_bound_is_exact(self, tmp_path, capfd, monkeypatch, experiment, payload, key,
                                 largest, first_allocation):
        # the largest size passes its bound and reaches the library, refused
        # here (exit 4); one more exits 3 before it
        refuse(monkeypatch, first_allocation)
        for size, code, message in ((largest, 4, f"{first_allocation} reached"),
                                    (largest + 1, 3, "exceed")):
            cfg = write_config(tmp_path, "c.json", {**payload, key: size})
            assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
            err = capfd.readouterr().err.splitlines()
            # exit 3 is one line; exit 4 follows its line with the traceback
            assert message in err[0] and (len(err) == 1 if code == 3
                                          else err[1] == TRACEBACK_HEAD), err

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

    def test_force_run_scales_with_resolution(self, tmp_path):
        # (nu, tau) -> (nu / 4, 4 tau) keeps nu tau to the bit, so the same
        # seed draws the same records: every force value and its error stays,
        # the times scale by 4 and the fitted rates by 1/4
        outs = []
        for nu, tau in ((0.5, 0.2), (0.125, 0.8)):
            payload = {"force.nu": nu, "force.tau": tau, "force.steps": 40,
                       "force.count": 20_000, "seed": 3}
            cfg = write_config(tmp_path, f"c{tau}.json", payload)
            out = tmp_path / f"o{tau}"
            assert main(["force-trajectories", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        tables = [{name: np.loadtxt(out / name, delimiter=",", skiprows=1)
                   for name in ("statistics.csv", "mean_series.csv")} for out in outs]
        for name in ("statistics.csv", "mean_series.csv"):
            fine, coarse = tables[0][name], tables[1][name]
            assert np.array_equal(coarse[:, [0, 2, 3]], fine[:, [0, 2, 3]])
            assert np.array_equal(coarse[:, 1], 4.0 * fine[:, 1])
        fine, coarse = (json.loads((out / "manifest.json").read_text())["results"]
                        for out in outs)
        for key in ("fitted_gamma_corr", "fitted_gamma_mean"):
            assert abs(coarse[key] - fine[key] / 4.0) <= 1e-12 * fine[key], key
        assert coarse["gamma_theory"] == fine["gamma_theory"] / 4.0

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
                        q, st = ts.two_time_correlations(state, dens, a1, a2, params, t1, t2)
                        corr_rows.append((a1, a2, t1, t2, q.real, q.imag, st))
        write_csv_rows_oracle(tmp_path / "mean.csv", ["a", "t", "mean"], mean_rows)
        write_csv_rows_oracle(tmp_path / "corr.csv", ["a1", "a2", "t1", "t2", "quantum_re",
                                                      "quantum_im", "statistical"], corr_rows)
        assert (tmp_path / "o" / "mean_density.csv").read_bytes() == \
            (tmp_path / "mean.csv").read_bytes()
        assert (tmp_path / "o" / "correlations.csv").read_bytes() == \
            (tmp_path / "corr.csv").read_bytes()

    def test_streamed_triangle_matches_whole_triangle(self, tmp_path):
        # 57 times make 1653 (t1, t2) pairs: one closed-form call of 1598
        # pairs (eight writer blocks of rows) and a last one of 55; the file
        # equals the one the whole triangle, built at once, gives
        from gravcat import two_state as ts
        from oracles import whole_triangle_correlations

        payload = {"g2s.nu": 1.3, "g2s.chi": 0.7, "g2s.c_plus_re": 0.6, "g2s.c_plus_im": 0.48,
                   "g2s.c_minus_im": 0.64, "g2s.m": 2.5, "g2s.ell": 0.7,
                   "grid.t_min": -2.0, "grid.t_max": 9.0, "grid.t_count": 57}
        man = run_experiment(resolve_config("g2s-correlations", payload,
                                            output_dir=tmp_path / "o"))
        per_call = 2 * harness._block_rows([np.dtype(np.int64)] * 2 + [np.dtype(float)] * 5)
        assert (per_call, 1653 % per_call) == (1598, 55)
        assert man["results"]["rows_corr"] == 4 * 1653
        columns = whole_triangle_correlations(ts.QubitState(0.6 + 0.48j, 0.64j),
                                              ts.SmearedDensityParams(2.5, 0.7),
                                              ts.TunnelingParams(1.3, 0.7),
                                              np.linspace(-2.0, 9.0, 57))
        harness.write_csv(tmp_path / "whole.csv", ["a1", "a2", "t1", "t2", "quantum_re",
                                                   "quantum_im", "statistical"], [columns])
        assert (tmp_path / "o" / "correlations.csv").read_bytes() == \
            (tmp_path / "whole.csv").read_bytes()

    def test_scaled_amplitudes_write_the_same_files(self, tmp_path):
        # (c+, c-) and 2 (c+, c-) normalize to the same state, bit for bit
        # (the factor 2 is exact), so every row is the same
        files = []
        for c_plus, c_minus in ((0.6, 0.8), (1.2, 1.6)):
            payload = {"g2s.c_plus_re": c_plus, "g2s.c_minus_im": c_minus, "g2s.nu": 0.3,
                       "grid.t_max": 20.0, "grid.t_count": 30}
            out = tmp_path / str(c_plus)
            run_experiment(resolve_config("g2s-correlations", payload, output_dir=out))
            files.append([(out / name).read_bytes()
                          for name in ("mean_density.csv", "correlations.csv")])
        assert files[0] == files[1]

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the triangle reaches the writer one block of pairs at a time: the
        # whole-triangle route peaked at 2.4 MB at 100 times and 35.6 MB at
        # 400 (tracemalloc)
        import tracemalloc

        def peak(count):
            cfg = resolve_config("g2s-correlations",
                                 {"g2s.nu": 0.3, "grid.t_max": 20.0, "grid.t_count": count},
                                 output_dir=tmp_path / str(count))
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-run allocations out of the way
        assert peak(400) - peak(100) < 0.5 * 2**20

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
        assert "max_abs_dev_exact_vs_rabi" in man["results"]

    def test_zero_rate_gives_zero_transition(self, tmp_path):
        payload = {**JC_CFG, "jc.nu_over_omega": 0.0}
        cfg = resolve_config("jc-suite", payload, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        header, rows = read_csv(tmp_path / "timeseries.csv")
        cols = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert abs(float(row[cols["p_exact"]])) < 1e-12
            assert abs(float(row[cols["p_rabi"]])) < 1e-15

    def test_probe_dynamics_config_follows_dressed_law(self, tmp_path):
        # one dressed half period at g/omega = 1 (nu_eff t <= pi/2, nu_eff =
        # nu e^-2), run with every warning an error: no per-sample route is
        # left that needs a warnings filter
        payload = {"jc.g_over_omega": 1.0, "jc.nu_over_omega": 0.05, "jc.dim": 64,
                   "jc.samples": 61, "jc.nu_t_max": 0.5 * np.pi * np.e**2}
        cfg = write_config(tmp_path, "c.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        results = json.loads((tmp_path / "o" / "manifest.json").read_text())["results"]
        assert results["max_abs_dev_exact_vs_dressed"] <= 2e-3
        assert results["max_transition_probability"] >= 0.99

    def test_default_config_shows_the_pointer_swap(self, tmp_path):
        # the default window is one dressed half period at g/omega = 2,
        # nu/omega = 0.01: omega t_max = (pi / 2) e^8 / 0.01 ~ 4.7e5
        cfg = write_config(tmp_path, "c.json", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["jc.nu_t_max"] is None
        assert manifest["results"]["max_transition_probability"] >= 0.99
        assert manifest["results"]["max_abs_dev_exact_vs_dressed"] <= 1e-3

    def test_zero_rate_default_window_is_pi_over_omega(self, tmp_path):
        # at nu = 0 the default window is omega t_max = pi
        payload = {"jc.omega": 2.0, "jc.nu_over_omega": 0.0, "jc.g_over_omega": 0.5,
                   "jc.dim": 16, "jc.samples": 5}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "timeseries.csv")
        assert float(rows[-1][0]) == np.pi / 2.0

    @pytest.mark.parametrize("samples,code", [(2, 0), (1, 2)])
    def test_two_samples_is_the_shortest_series(self, tmp_path, samples, code):
        cfg = write_config(tmp_path, "c.json", {**JC_CFG, "jc.samples": samples})
        assert main(["jc-suite", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        if code == 0:
            _, rows = read_csv(tmp_path / "o" / "timeseries.csv")
            assert [float(r[0]) for r in rows] == [0.0, 0.5 / JC_CFG["jc.nu_over_omega"]]

    def test_run_scales_with_omega(self, tmp_path):
        # jc.omega -> 4 jc.omega at fixed ratios scales H by 4: the default
        # window's times scale by exactly 1/4, and every probability,
        # purity and pointer label is the same at the same omega t
        tables = []
        for omega in (1.0, 4.0):
            cfg = write_config(tmp_path, f"c{omega}.json", {"jc.omega": omega, "jc.dim": 48})
            out = tmp_path / f"o{omega}"
            assert main(["jc-suite", "--config", str(cfg), "--out", str(out)]) == 0
            tables.append(np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1))
        slow, fast = tables
        assert np.array_equal(fast[:, 0], slow[:, 0] / 4.0)
        assert np.array_equal(fast[:, 1:], slow[:, 1:])

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

    def test_wigner_rows_match_row_oracle(self, tmp_path):
        # every row of a default cat run, formatted value by value from the
        # grid the runner computes, by the former row writer
        from gravcat.states import Packet
        from gravcat.wigner import wigner_function

        payload = {"density.state": "cat"}
        run_experiment(resolve_config("density-suite", payload, output_dir=tmp_path / "o"))
        grid = wigner_function(Packet(1.0, [(3.0, 0.0, 0.0), (-3.0, 0.0, 0.0)]).axis_state(0))
        rows = ((x, p, w) for x, row in zip(grid.x, grid.values) for p, w in zip(grid.p, row))
        write_csv_rows_oracle(tmp_path / "rows.csv", ["x", "p", "w"], rows)
        assert (tmp_path / "o" / "wigner.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert grid.values.size == 257 * 321

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
        from oracles import cat

        state = cat(1.0, 6.0)
        lo, hi = state.support()
        xs = np.linspace(lo, hi, 101)
        loop = [dn.density_mean(state, float(x), 0.0, 1.0) for x in xs]
        harness.write_csv(tmp_path / "loop.csv", ["x", "smeared_mean", "density_exact"],
                          [[xs, loop, np.abs(state.psi(xs)) ** 2]])
        assert (tmp_path / "static_mean.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("payload", [
        {},
        {"density.state": "cat", "density.sigma": 1.0, "density.L": 6.0},
        {"density.state": "cat", "density.sigma": 0.5, "density.L": 4.0},
    ], ids=["default", "benchmark-cat", "narrow-cat"])
    def test_correlators_match_trapezoid_over_exact_w(self, tmp_path, payload):
        # both rows, row 2 included: its time-of-flight momentum p* = -4
        # lies off the Wigner grid's +/- 3 (sigma 1), where a grid route
        # reads 0.  Oracles: m |psi(r, t)|^2 of the evolved packet for the
        # mean, W written out at (x*, p*) for the delta limit, and a
        # brute-force 2D trapezoid over W on p* +/- 4 and +/- 8 s_x for the
        # finite-width function
        from oracles import cat, cat_wigner, gaussian, trapezoid_corr

        cfg = resolve_config("density-suite", payload, seed=0, output_dir=tmp_path)
        run_experiment(cfg)
        p = cfg.parameters
        sigma, s_x, m = p["density.sigma"], p["density.s_x"], p["density.m"]
        sep = p["density.L"] if p["density.state"] == "cat" else 0.0
        state = cat(sigma, sep) if sep else gaussian(sigma)
        header, rows = read_csv(tmp_path / "correlators.csv")
        assert len(rows) == 2
        for row in rows:
            r, t, r2, t2, mean, corr_delta, corr_quad = (float(v) for v in row)
            psi_sq = abs(state.psi(r, t, m)) ** 2
            assert abs(mean - m * psi_sq) <= 1e-12 * m * psi_sq
            p_star = m * (r - r2) / (t - t2)
            x_star = 0.5 * (r + r2) - p_star * (t + t2) / (2.0 * m)
            delta = m**3 / (2.0 * np.pi * abs(t - t2)) * cat_wigner(x_star, p_star, sigma, sep)
            assert delta != 0.0 and abs(corr_delta - delta) <= 1e-12 * abs(delta)
            quad = trapezoid_corr(sigma, sep, s_x, r, t, r2, t2, m)
            assert quad != 0.0 and abs(corr_quad - quad) <= 1e-12 * abs(quad)

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
