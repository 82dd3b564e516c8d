"""jumpfolio benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload {figures,mc-sparse,paths-dense} \
        --seed N --seconds S --trace {0,1}

One run:

1. measures set-up: ``SETUP_SAMPLES`` fresh processes each time
   ``import jumpfolio.cli`` plus the first ``load_config`` (after one
   unmeasured warm-up process);
2. runs the workload body once in this process to warm up (checked, not
   timed);
3. runs the body again and again until the timed bodies have taken
   ``--seconds`` in total (at least once); every body is checked for
   correctness after it returns, outside the timing;
4. with ``--trace 1``, installs the span tracer and runs one more, traced,
   body.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the run environment.  Everything else the run
leaves (CSV outputs, ``result.json``, the span CSV) is under
``.bench_out/<workload>/``.  See bench/NOTES.md.
"""

from __future__ import annotations

import os

# one process uses one core: pin every BLAS/OpenMP pool before numpy loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))  # measure the sources of this checkout

SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 120

# functions reported with .calls and .self_s
CALLS_AND_SELF = (
    "distributions.expect",
    "policy.h_value",
    "policy.h_inverse",
    "verify.ensemble_functionals",
    "mpp.simulate_ensemble",
    "mpp.simulate_path",
    "market.wealth_path",
    "market.gross_wealth_path",
    "market.stock_path",
    "market.export_path_csv",
    "frictions.g",
)
# functions reported with .total_s (their span including children)
TOTAL_ONLY = (
    "verify.martingale_factor_check",
    "verify.budget_check",
    "verify.mc_expected_utility",
    "verify.state_price_wealth_identity",
    "verify.wealth_identity_check",
    "regime_value.regime_inputs",
    "regime_value.value_semianalytic",
)
SOLVERS = ("policy.log_optimal_policy", "policy.power_optimal_policy")


def _probe_ensemble_functionals(counters, args, kwargs, result):
    ens = args[0] if args else kwargs["ens"]
    n, m = ens.times.shape
    counters["sweep_cells"] = counters.get("sweep_cells", 0) + n * (m + 1)
    useful = int(ens.counts.sum()) + n
    counters["useful_cells"] = counters.get("useful_cells", 0) + useful


def _probe_simulate_ensemble(counters, args, kwargs, result):
    counters["ens_cells"] = counters.get("ens_cells", 0) + result.times.size
    counters["ens_jumps"] = counters.get("ens_jumps", 0) + int(result.counts.sum())
    mb = (result.times.nbytes + result.marks.nbytes) / 1e6
    counters["padded_mb"] = max(counters.get("padded_mb", 0.0), mb)


PROBES = {
    "verify.ensemble_functionals": _probe_ensemble_functionals,
    "mpp.simulate_ensemble": _probe_simulate_ensemble,
}


def per_layer_metrics(tr, traced_wall, untraced_wall, setup):
    """Every per-layer metric, as {name: (value, unit)}."""
    from tracer import LAYERS

    m = {
        "setup.import_s": (setup[0], "s"),
        "setup.load_config_s": (setup[1], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.self_s"] = (tr.self_s(name), "s")
    for name in TOTAL_ONLY:
        m[f"{name}.total_s"] = (tr.total_s(name), "s")
    solves = sum(tr.calls(name) for name in SOLVERS)
    m["policy.solve.calls"] = (solves, "count")
    m["policy.solve.total_s"] = (sum(tr.total_s(name) for name in SOLVERS), "s")
    expect_in_solves = tr.calls_inside.get("distributions.expect", 0)
    m["policy.expect_per_solve"] = (expect_in_solves / solves if solves else 0.0, "ratio")
    c = tr.counters
    cells = c.get("sweep_cells", 0)
    m["verify.sweep_cells"] = (cells, "count")
    m["verify.useful_cell_ratio"] = (c.get("useful_cells", 0) / cells if cells else 0.0, "ratio")
    m["verify.grid_search_constant_portfolio.self_s"] = (
        tr.self_s("verify.grid_search_constant_portfolio"),
        "s",
    )
    m["verify.state_price_spec.calls"] = (tr.calls("verify.state_price_spec"), "count")
    ens_cells = c.get("ens_cells", 0)
    m["mpp.fill_ratio"] = (c.get("ens_jumps", 0) / ens_cells if ens_cells else 0.0, "ratio")
    m["mpp.padded_mb"] = (c.get("padded_mb", 0.0), "MB")
    m["config.load_config.calls"] = (tr.calls("config.load_config"), "count")
    m["cli.main.self_s"] = (tr.self_s("cli.main"), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


# ---------------------------------------------------------------------------


def measure_setup(config, samples):
    """Median (import_s, load_config_s, setup_s) over fresh processes."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)]
    results = []
    for k in range(samples + 1):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True
        )
        if k:  # the first process warms the bytecode and file caches
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(r[0] for r in results),
        statistics.median(r[1] for r in results),
        statistics.median(r[0] + r[1] for r in results),
    )


def run_checked(workload, seed, out_dir, failures, small, tracer=None):
    """One body, traced if a tracer is given, then its checks (untraced).

    Returns (wall seconds per operation, checks made, checks failed).
    """
    if tracer is not None:
        tracer.install(PROBES)
    try:
        record = workload.body(seed, out_dir, small)
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks = workload.check(record, out_dir, small)
    bad = [c for c in checks if not c[1]]
    failures.extend(f"{name}: {detail}" for name, _, detail in bad)
    return record.op_s, len(checks), len(bad)


def typical_wall(passes):
    """Sum over operations of each operation's median time across passes.

    On a shared machine the speed drifts in phases of seconds; a
    per-operation median discards the passes of an operation that fell in
    a slow phase, where a median of whole passes would average them in.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def environment(workload, seed, seconds, trace, passes, setup_samples):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "setup_samples": setup_samples,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_per_pool": 1,
    }


def run(name, seed, seconds, trace, small=False, setup_samples=SETUP_SAMPLES):
    """One benchmark run; returns (result, env, tracer or None).

    ``small`` shrinks every workload for the self-check (bench/selfcheck.py).
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)

    setup = measure_setup(workload.setup_config, setup_samples)
    import jumpfolio.cli  # noqa: F401  (paid once here, measured above)

    # the first pass warms caches and brings the processor to the speed it
    # holds under sustained load; it is checked but not measured
    failures = []
    _, attempted, failed = run_checked(workload, seed, out_dir, failures, small)
    passes = []
    while not passes or sum(map(sum, passes)) < seconds:
        op_s, n, bad = run_checked(workload, seed, out_dir, failures, small)
        passes.append(op_s)
        attempted += n
        failed += bad
    untraced_wall = typical_wall(passes)

    tr = None
    if trace:
        from tracer import Tracer

        tr = Tracer()
        origin = time.perf_counter()
        op_s, n, bad = run_checked(workload, seed, out_dir, failures, small, tr)
        attempted += n
        failed += bad
        tr.write_spans(out_dir / "spans.csv", origin)
        metrics = per_layer_metrics(tr, sum(op_s), untraced_wall, setup)
    else:
        metrics = {
            "setup_s": (setup[2], "s"),
            "wall_s": (untraced_wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    env = environment(name, seed, seconds, trace, len(passes), setup_samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"env": env, "op_s": passes, "failures": failures, **result}, fh, indent=1)
    return result, env, tr


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jumpfolio" / "__init__.py").is_file():
        print(f"error: no jumpfolio sources under {SRC}", file=sys.stderr)
        return 2
    result, env, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
