"""The benchmark's workloads and their correctness checks.

A workload is a closed loop run by one single-threaded process: a fixed
sequence of ``jumpfolio.cli.main(argv)`` calls (plus, for ``mc-sparse``,
one library call), each issued only after the previous one returned.
The workload seed goes to the CLI as ``--seed`` and to the library call as
``seed``.  ``body`` runs the timed calls and returns what they produced;
``check`` inspects that record afterwards and is not timed.

Why each workload exists (see NOTES.md for the metric map):

* ``figures``: quadrature and root finding, no Monte Carlo.
* ``mc-sparse``: many column sweeps over a narrow path ensemble
  (lambda=1, T=1, padded width 16), including the 201-weight grid search.
* ``paths-dense``: few sweeps over a wide, half-empty ensemble (lambda=50,
  T=10, padded width 1024) plus the per-path loops of the market layer.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"
REFERENCE = BENCH / "reference"

FIG1 = DEMO_CONFIGS / "fig1.yaml"
FIG3 = DEMO_CONFIGS / "fig3.yaml"
REGIME_SWITCHING = DEMO_CONFIGS / "regime_switching.yaml"
PATHS_DENSE = BENCH / "configs" / "paths_dense.yaml"

# figure CSVs must match the references within this tolerance, per cell:
# |got - ref| <= FIG_RTOL * max(|got|, |ref|) + FIG_ATOL
FIG_RTOL = 1e-8
FIG_ATOL = 1e-10

# closed-form optima on the fig1 market, and the grid-search window
GRID = np.round(np.linspace(0.0, 2.0, 201), 10)
GRID_OPTIMA = {"log": 0.7461, "power": 1.0289}
GRID_TOL = 0.01 + 1e-9

N_SIM_PATHS = 100
REPORT_GRID_POINTS = 257  # market.DEFAULT_GRID_POINTS + 1
PATH_HEADER = "t,regime,S,V1pi0,xi,V"


@dataclass
class Record:
    """What one pass of a workload body produced."""

    cli: list = field(default_factory=list)  # (argv, exit code, stdout)
    grid: dict = field(default_factory=dict)  # utility -> argmax, None if it raised
    op_s: list = field(default_factory=list)  # wall time of each operation, in order


@dataclass
class Workload:
    setup_config: Path  # the config the set-up probe loads
    body: object
    check: object


def _cli(record, argv):
    from jumpfolio import cli

    argv = [str(a) for a in argv]
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = None
    record.op_s.append(time.perf_counter() - t0)
    record.cli.append((argv, code, out.getvalue()))


def _common(seed, out_dir, n_paths=None):
    args = ["--seed", seed, "--output-dir", out_dir]
    if n_paths is not None:
        args += ["--n-paths", n_paths]
    return args


# ---------------------------------------------------------------------------
# bodies
# ---------------------------------------------------------------------------


def figures_body(seed, out_dir, small=False):
    record = Record()
    common = _common(seed, out_dir)
    for cfg in (FIG1, FIG3, REGIME_SWITCHING):
        _cli(record, ["optimize", cfg] + common)
    figures = ((FIG1, 1), (FIG1, 2), (FIG3, 3), (FIG3, 4))
    for cfg, fig in figures[:2] if small else figures:
        _cli(record, ["figures", cfg, "--figure", fig] + common)
    return record


def mc_sparse_body(seed, out_dir, small=False):
    from jumpfolio.config import load_config
    from jumpfolio.policy import Utility
    from jumpfolio.verify import grid_search_constant_portfolio

    record = Record()
    n_paths = 2000 if small else 100_000
    common = _common(seed, out_dir, n_paths)
    _cli(record, ["verify", REGIME_SWITCHING] + common)
    _cli(record, ["value", REGIME_SWITCHING] + common)
    _cli(record, ["verify", REGIME_SWITCHING, "--gamma", 0.5] + common)
    grid = GRID[::20] if small else GRID
    for label, utility in (("log", Utility.log()), ("power", Utility.power(0.5))):
        t0 = time.perf_counter()
        try:
            market = load_config(FIG1).market
            pi_star, _ = grid_search_constant_portfolio(
                market, utility, 1.0, 1.0, grid, n_paths, seed
            )
        except Exception:
            traceback.print_exc()
            pi_star = None
        record.op_s.append(time.perf_counter() - t0)
        record.grid[label] = pi_star
    return record


def paths_dense_body(seed, out_dir, small=False):
    record = Record()
    n_paths = 200 if small else None
    common = _common(seed, out_dir, n_paths)
    _cli(record, ["simulate", PATHS_DENSE, "--paths", 5 if small else N_SIM_PATHS] + common)
    _cli(record, ["verify", PATHS_DENSE] + common)
    _cli(record, ["value", PATHS_DENSE] + common)
    return record


# ---------------------------------------------------------------------------
# checks: each returns a list of (name, passed, detail)
# ---------------------------------------------------------------------------


def _exit_checks(record):
    return [
        (f"exit {' '.join(argv[:2])}", code == 0, f"exit code {code}")
        for argv, code, _ in record.cli
    ]


def _no_fail_lines(record):
    out = []
    for argv, _, stdout in record.cli:
        if argv[0] == "verify":
            fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
            out.append((f"verify {Path(argv[1]).name}", not fails, "; ".join(fails)))
    return out


_OPT_LINE = re.compile(r"regime (\d): pi_hat=(\S+) case=\S+ zeta_hat=(\S+)")


def _conjugacy_checks(record):
    from jumpfolio.config import load_config
    from jumpfolio.policy import verify_conjugacy

    out = []
    for argv, _, stdout in record.cli:
        if argv[0] != "optimize":
            continue
        market = load_config(argv[1]).market
        found = _OPT_LINE.findall(stdout)
        if len(found) != 2:
            out.append((f"optimize {Path(argv[1]).name}", False, "missing regime lines"))
            continue
        for i, pi, zeta in found:
            pi, zeta = float(pi), float(zeta)
            residual = verify_conjugacy(
                market.regimes[int(i)].margin, market.constraint, pi, zeta
            )
            bound = 1e-9 * max(1.0, abs(pi * zeta))
            out.append(
                (
                    f"conjugacy {Path(argv[1]).name} regime {i}",
                    residual <= bound,
                    f"residual {residual:.3e} bound {bound:.3e}",
                )
            )
    return out


def _read_rows(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def _cells_match(got, ref):
    if (got == "") != (ref == ""):
        return False
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    return abs(a - b) <= FIG_RTOL * max(abs(a), abs(b)) + FIG_ATOL


def compare_figure(path, reference):
    """(passed, detail) for one figure CSV against its reference."""
    header, rows = _read_rows(path)
    ref_header, ref_rows = _read_rows(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return False, f"shape {header!r}/{len(rows)} vs {ref_header!r}/{len(ref_rows)}"
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref) or not all(map(_cells_match, row, ref)):
            return False, f"row {k}: {row} vs {ref}"
    return True, f"{len(rows)} rows"


def figures_check(record, out_dir, small=False):
    checks = _exit_checks(record) + _conjugacy_checks(record)
    for argv, _, _ in record.cli:
        if argv[0] == "figures":
            name = f"fig{argv[3]}.csv"
            try:
                passed, detail = compare_figure(Path(out_dir) / name, REFERENCE / name)
            except OSError as exc:
                passed, detail = False, str(exc)
            checks.append((f"figure {name}", passed, detail))
    return checks


def mc_sparse_check(record, out_dir, small=False):
    checks = _exit_checks(record) + _no_fail_lines(record)
    for label, target in GRID_OPTIMA.items():
        got = record.grid.get(label)
        # the reduced grid has a 0.2 step, so its argmax is only near the optimum
        tol = 0.1 + 1e-9 if small else GRID_TOL
        passed = got is not None and abs(got - target) <= tol
        checks.append((f"grid argmax {label}", passed, f"{got} vs {target}"))
    return checks


_WROTE = re.compile(r"wrote (\S+) \((\d+) events\)")


def paths_dense_check(record, out_dir, small=False):
    checks = _exit_checks(record) + _no_fail_lines(record)
    stdout = next(s for argv, _, s in record.cli if argv[0] == "simulate")
    written = _WROTE.findall(stdout)
    expected = 5 if small else N_SIM_PATHS
    checks.append(("simulate path count", len(written) == expected, f"{len(written)} paths"))
    for name, events in written:
        rows = REPORT_GRID_POINTS + int(events)
        try:
            header, lines = _read_rows(name)
            data = np.array(lines, dtype=float)
        except (OSError, ValueError) as exc:
            checks.append((f"path {Path(name).name}", False, str(exc)))
            continue
        passed = (
            header == PATH_HEADER
            and data.shape == (rows, 6)
            and bool(np.all(np.isfinite(data)))
        )
        checks.append((f"path {Path(name).name}", passed, f"shape {data.shape}, {rows} rows expected"))
    return checks


WORKLOADS = {
    "figures": Workload(FIG1, figures_body, figures_check),
    "mc-sparse": Workload(REGIME_SWITCHING, mc_sparse_body, mc_sparse_check),
    "paths-dense": Workload(PATHS_DENSE, paths_dense_body, paths_dense_check),
}
