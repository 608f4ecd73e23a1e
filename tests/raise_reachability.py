"""Every `raise` in `src/gravcat` is reached by a CLI run, or it is listed.

    PYTHONPATH=src python tests/raise_reachability.py

Runs the tests of `tests/test_harness.py` in this process under
`sys.settrace`.  A `raise` statement inside a function of the package
(found with `ast`) counts as reached when one of its lines runs beneath
`harness.load_config`, `harness.resolve_config` or
`harness.run_experiment`, the three calls through which `cli.main` runs a
config; runs in a subprocess are not traced.  Exits 1 when the tests fail,
when a `raise` is neither reached nor listed in UNREACHED, or when an
UNREACHED entry matches no `raise` of the package.  Each entry is an
internal invariant: a check no config can fail, which `cli.main` would
report as exit 4.  Not a pytest module: it takes about a minute.
"""

import ast
import os
import sys
import time
from pathlib import Path

import pytest

import gravcat

PACKAGE = Path(gravcat.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ENTRIES = {"load_config", "resolve_config", "run_experiment"}

# (module, function, text of the raised expression) -> why no config reaches it
UNREACHED = {
    ("harness", "chunks", "1-D real columns"):
        "write_csv's column check: every runner builds its columns, one per header name",
    ("harness", "__init__", "1-D integer codes"):
        "IndexColumn's check: the runners take codes from integer aranges and grid indices "
        "into 1-D axes",
    ("harness", "__init__", "codes must lie in"):
        "IndexColumn's range check: each runner's codes index the axis they were built from",
    ("fock", "coherent_state", "coherent state has norm"):
        "D(zeta)|0> is unitary to rounding; the leak check bounds zeta before it is built",
    ("jc", "pointer_state", "sign must be +1 or -1"):
        "the runner asks for the signs +1 and -1 only",
    ("jc", "_composite", "composite vector has shape"):
        "the runner passes the (2D,) pointer states it built",
    ("jc", "evolve_rows", "time series must start at 0"):
        "the runner's linspace starts at 0",
    ("two_state", "__post_init__", "squared norm"):
        "the runner divides the amplitudes by their normal-float norm",
    ("two_state", "_check_sign", "well label"):
        "the runner passes the labels +1 and -1 only",
    ("two_state", "two_time_correlations", "times must be ordered"):
        "the runner passes the grid's upper triangle, t1 <= t2",
    ("states", "packet", "packet widths must be finite and nonzero"):
        "the scale checks keep every packet width the runner builds a normal float",
    ("states", "__post_init__", "centres must be finite floats"):
        "the runner builds finite (x, y, z) centres",
    ("states", "axis_state", "single coordinate axis"):
        "the runner's cat branches differ along x only",
    ("density", "fluctuation_ratio", "density vanishes"):
        "only a single-point call raises; the runner passes an array of points",
    ("density", "fluctuation_ratio", "squared density underflows"):
        "only a single-point call raises; the runner passes an array of points",
    ("density", "smeared_corr_phase_space", "equal times"):
        "the runner's two times are the constants 0.1 and 0.35",
    ("density", "smeared_corr_quadrature", "distinct times"):
        "the runner's two times are the constants 0.1 and 0.35",
    ("histories", "additivity_defect", "strictly increasing"):
        "the runner's sampling times are 0.1 and 0.1 + dt, dt > 0",
    ("histories", "additivity_defect", "Gaussian sampling"):
        "the runner passes SmearingParams, the Gaussian sampler",
    ("measurement", "_distinct_records", "2-D uint64 array"):
        "the blocks come from sample_trajectories, of this shape and type",
    ("measurement", "_distinct_records", "padding bits"):
        "sample_trajectories clears the padding bits",
    ("measurement", "_distinct_records", "at least one record"):
        "the runner samples at least 100 records",
    ("measurement", "fit_exponential_rate", "single sign"):
        "the runner's fit window keeps nonzero samples of the first one's sign",
    ("wigner", "__post_init__", "does not match axes"):
        "wigner_function builds the values from the axes it passes",
    ("wigner", "wigner_function", "Wigner normalization"):
        "default_axes spaces positions at most one spread apart, which puts the trapezoid "
        "error near e^(-2 pi^2) = 3e-9 (at most 3.6e-9 over cats up to the size bound)",
}


def raise_sites() -> dict:
    """(resolved file, line) -> (module, function, raised text) for every line
    of each `raise` inside a function of the package.  ast.walk visits an
    outer function before the functions nested in it, so the innermost one
    names a raise."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise):
                    key = (path.stem, func.name, ast.unparse(node.exc) if node.exc else "")
                    for line in range(node.lineno, node.end_lineno + 1):
                        sites[(str(path), line)] = key
    return sites


def traced_lines(sites: dict) -> tuple[int, set]:
    """Run the harness tests under a tracer: their exit code, and the raise
    lines that ran beneath one of ENTRIES."""
    lines_of, depth, reached = {}, [0], set()
    for file, line in sites:
        lines_of.setdefault(file, set()).add(line)
    files = {}  # co_filename -> its resolved path if in the package, else None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = path if Path(path).parent == PACKAGE else None
        path = files[name]
        if path is None:
            return None
        entry = frame.f_code.co_name in ENTRIES and path.endswith("harness.py")
        if not (entry or depth[0]):
            return None
        lines = lines_of.get(path, ())
        if entry:
            depth[0] += 1

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                reached.add((path, frame.f_lineno))
            elif event == "return" and entry:
                depth[0] -= 1
            return local

        return local

    sys.settrace(tracer)
    try:
        code = pytest.main([str(TESTS / "test_harness.py"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), reached


def main() -> int:
    start = time.perf_counter()
    sites = raise_sites()
    code, reached = traced_lines(sites)
    keys = set(sites.values())
    hit = {sites[site] for site in reached}
    failures = [] if code == 0 else [f"tests/test_harness.py exited {code}"]
    for module, func, text in sorted(keys - hit):
        if not any(m == module and f == func and fragment in text
                   for m, f, fragment in UNREACHED):
            failures.append(f"unreached and not listed: {module}.{func}: raise {text}")
    for module, func, fragment in UNREACHED:
        matches = [k for k in keys if k[:2] == (module, func) and fragment in k[2]]
        if not matches:
            failures.append(f"listed but no such raise: {module}.{func}: {fragment!r}")
        elif set(matches) <= hit:
            failures.append(f"listed but reached: {module}.{func}: {fragment!r}")
    print(f"{len(keys)} raise statements: {len(keys & hit)} reached beneath a CLI run, "
          f"{len(keys - hit)} listed as internal invariants; "
          f"{time.perf_counter() - start:.0f} s")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
