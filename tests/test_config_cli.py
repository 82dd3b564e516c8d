import bisect
import copy
import csv
import dataclasses
import io
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from jumpfolio import cli
from jumpfolio.cli import main
from jumpfolio.config import (
    RunConfig,
    config_hash,
    load_config,
    parse_config,
)
from jumpfolio.errors import ConfigError
from jumpfolio.frictions import DifferentialRates, ShortRebate
from jumpfolio.market import DEFAULT_GRID_POINTS, export_path_csv, stock_path, wealth_path
from jumpfolio.mpp import simulate_ensemble
from jumpfolio.policy import log_optimal_policy

from mpmath_oracle import mpmath_h

ROOT = Path(__file__).resolve().parents[1]


BASE = {
    "model": {
        "initial_state": 0,
        "regimes": [
            {
                "r": 0.045,
                "mu": -0.05,
                "lam": 1.0,
                "transform": "exponential",
                "margin": {"variant": "differential_rates", "R": 0.05},
                "distribution": {"variant": "exponential_positive", "rate": 10.0},
            }
        ],
    },
    "utility": {"variant": "power", "gamma": 0.5},
    "horizon": 1.0,
    "initial_wealth": 1.0,
    "mc": {"n_paths": 1000, "seed": 7},
}


def write_config(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


class TestParsing:
    def test_valid_config_builds_model(self):
        cfg = parse_config(copy.deepcopy(BASE))
        assert isinstance(cfg, RunConfig)
        assert isinstance(cfg.market.regimes[0].margin, DifferentialRates)
        # single regime entry is replicated
        assert cfg.market.regimes[0].r == cfg.market.regimes[1].r
        assert cfg.market.constraint.lower == 0.0

    def test_unknown_key_dotted_path(self):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0]["volatility"] = 0.2
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert "config.model.regimes[0].volatility" in str(exc.value)

    def test_missing_key_dotted_path(self):
        data = copy.deepcopy(BASE)
        del data["mc"]["seed"]
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert "config.mc.seed" in str(exc.value)

    def test_rate_order_validation_names_field(self):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0]["margin"]["R"] = 0.01  # below r
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert "R" in str(exc.value)

    def test_short_rebate_variant(self):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0].update(
            {
                "r": 0.03,
                "mu": 0.07,
                "margin": {"variant": "short_rebate", "rL": 0.05},
                "distribution": {"variant": "exponential_negative", "rate": 10.0},
            }
        )
        cfg = parse_config(data)
        assert isinstance(cfg.market.regimes[0].margin, ShortRebate)
        assert cfg.market.constraint.upper == 1.0  # canonical no-borrowing set

    def test_round_trip(self):
        cfg = parse_config(copy.deepcopy(BASE))
        reparsed = parse_config(yaml.safe_load(yaml.safe_dump(cfg.raw, sort_keys=True)))
        assert reparsed.raw == cfg.raw
        assert config_hash(reparsed) == config_hash(cfg)

    def test_hash_changes_with_content(self):
        a = parse_config(copy.deepcopy(BASE))
        data = copy.deepcopy(BASE)
        data["mc"]["seed"] = 8
        b = parse_config(data)
        assert config_hash(a) != config_hash(b)

    def test_overrides(self):
        cfg = parse_config(copy.deepcopy(BASE), {"mc.seed": 99, "horizon": 2.0})
        assert cfg.seed == 99 and cfg.horizon == 2.0

    def test_overrides_leave_input_untouched(self):
        data = copy.deepcopy(BASE)
        parse_config(data, {"mc.seed": 1})
        assert data == BASE

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_standard_error_needs_two_paths(self, n_paths):
        data = copy.deepcopy(BASE)
        data["mc"]["n_paths"] = n_paths
        for args in ((data,), (copy.deepcopy(BASE), {"mc.n_paths": n_paths})):
            with pytest.raises(ConfigError, match="two paths") as exc:
                parse_config(*args)
            assert exc.value.field == "config.mc.n_paths"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["horizon", "initial_wealth"])
    def test_horizon_and_wealth_must_be_finite(self, key, value):
        with pytest.raises(ConfigError, match="finite and positive") as exc:
            parse_config(copy.deepcopy(BASE), {key: value})
        assert exc.value.field == f"config.{key}"

    def test_output_dir_env(self, monkeypatch):
        monkeypatch.setenv("JUMPFOLIO_OUTPUT_DIR", "/tmp/somewhere")
        cfg = parse_config(copy.deepcopy(BASE))
        assert cfg.output_dir == "/tmp/somewhere"

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "demos" / "configs").glob("*.yaml"))
        + [ROOT / "bench" / "configs" / "paths_dense.yaml"],
        ids=lambda p: p.name,
    )
    def test_both_yaml_loaders_agree(self, path):
        """libyaml's parser, where PyYAML has it, reads every shipped
        config as the pure-Python parser does."""
        text = path.read_text()
        fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert load_config(path).raw == parse_config(yaml.load(text, Loader=yaml.SafeLoader)).raw

    def test_malformed_yaml_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model: {regimes: [{r: 0.04}\n")
        with pytest.raises(ConfigError, match=r"cfg\.yaml: not valid YAML at line 2"):
            load_config(path)


class TestCliExitCodes:
    def test_optimize_success(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["optimize", path]) == 0
        out = capsys.readouterr().out
        assert "case=4" in out and "pi_hat=1.02889926" in out

    def test_validation_error_exit_1(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0]["margin"]["R"] = 0.01
        path = write_config(tmp_path, data)
        assert main(["optimize", path]) == 1
        assert "R" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--horizon", "inf", "horizon"), ("--wealth", "nan", "initial_wealth")],
    )
    @pytest.mark.parametrize("command", ["optimize", "value"])
    def test_non_finite_horizon_or_wealth_exit_1(
        self, tmp_path, capsys, command, flag, value, field
    ):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        assert main([command, path, flag, value]) == 1
        assert f"config.{field} must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "value"])
    def test_one_path_monte_carlo_exit_1(self, tmp_path, capsys, command):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        argv = [command, path, "--n-paths", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "two paths" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("paths", ["-2", "0"])
    def test_simulate_needs_a_path_exit_1(self, tmp_path, capsys, paths):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        argv = ["simulate", path, "--paths", paths, "--output-dir", str(out_dir)]
        assert main(argv) == 1
        assert "--paths must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_file_exit_1(self):
        assert main(["optimize", "/nonexistent/cfg.yaml"]) == 1

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        """An unclosed flow mapping: one error line, no traceback."""
        path = tmp_path / "cfg.yaml"
        path.write_text("model: {regimes: [{r: 0.04}\n")
        assert main(["optimize", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid YAML" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_infeasible_model_exit_2(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0]["mu"] = 0.06  # violates R > mu
        path = write_config(tmp_path, data)
        assert main(["optimize", path]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_verify_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        import jumpfolio.cli as cli_mod

        # the martingale estimate is the reduction of its check's level:
        # make every sample 2.0, so the estimate is 2.0
        original = cli_mod.verify_mod.martingale_mc
        monkeypatch.setattr(
            cli_mod.verify_mod,
            "martingale_mc",
            lambda *a, **k: dataclasses.replace(
                original(*a, **k), reduce=lambda res: np.full_like(res["final_log"], 2.0)
            ),
        )
        data = copy.deepcopy(BASE)
        data["mc"]["n_paths"] = 200
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 3
        assert "FAIL state_price_martingale" in capsys.readouterr().out

    @pytest.mark.parametrize("gamma, n_levels", [("0", 3), ("0.5", 2)])
    def test_verify_sweeps_the_sample_once(self, tmp_path, monkeypatch, capsys, gamma, n_levels):
        """Every Monte Carlo check of verify reads one sweep of the sample,
        and the sweep evaluates each jump basis once per column holding an
        event in [0, T]."""
        import jumpfolio.verify as verify_mod

        original = verify_mod.column_functionals
        sweeps = []

        def counted(stream, jump_bases, levels):
            calls = dict.fromkeys(jump_bases, 0)
            active = [0]

            def count(key, f):
                def basis(y):
                    calls[key] += 1
                    return f(y)

                return basis

            def columns():
                for column in stream.columns:
                    active[0] += bool(np.any(column[1]))
                    yield column

            sweeps.append((calls, active, len(levels)))
            bases = {key: [count(key, f) for f in pair] for key, pair in jump_bases.items()}
            return original(dataclasses.replace(stream, columns=columns()), bases, levels)

        monkeypatch.setattr(verify_mod, "column_functionals", counted)
        data = copy.deepcopy(BASE)
        data["mc"]["n_paths"] = 3000
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--gamma", gamma, "--output-dir", str(tmp_path)]) == 0
        assert len(sweeps) == 1
        calls, (active,), levels = sweeps[0]
        assert levels == n_levels and active > 0
        # the checked policy's weights are the only jump basis
        assert list(calls.values()) == [active]

    def test_verify_draws_each_sample_once(self, tmp_path, monkeypatch, capsys):
        """One drawn sample serves every check, the pathwise identities
        included, and nothing else draws random numbers."""
        import jumpfolio.mpp as mpp

        calls = []
        inside = []
        original = mpp.jump_columns

        def counted(*args, **kwargs):
            calls.append("jump_columns")
            inside.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "jumpfolio" and getattr(mod, "jump_columns", None) is original:
                monkeypatch.setattr(mod, "jump_columns", counted)
        real_default_rng = np.random.default_rng

        def spy(*args, **kwargs):
            if not inside:
                calls.append("default_rng")
            return real_default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        data["mc"]["n_paths"] = 300
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 0
        assert "state_price_wealth_identity" in capsys.readouterr().out
        assert calls == ["jump_columns"]

    def test_verify_builds_one_dual_density(self, tmp_path, monkeypatch, capsys):
        """A log verify solves its policy once and builds the policy's dual
        density once, for every check that reads it."""
        import jumpfolio.policy as policy_mod
        import jumpfolio.verify as verify_mod

        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name, owner in (
            ("log_optimal_policy", policy_mod),
            ("power_optimal_policy", policy_mod),
            ("state_price_spec", verify_mod),
        ):
            original = getattr(owner, name)
            wrapper = counted(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "jumpfolio" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        data["mc"]["n_paths"] = 300
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 0
        assert "PASS state_price_wealth_identity" in capsys.readouterr().out
        assert sorted(calls) == ["log_optimal_policy", "state_price_spec"]

    def test_corollary_is_reported_not_checked(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        data["mc"]["n_paths"] = 300
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "value_corollary_reported" in l)
        assert line.startswith("INFO value_corollary_reported: corollary=")
        with open(tmp_path / "verify_report.csv") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        status = {r[0]: r[1] for r in rows[1:]}
        assert status.pop("value_corollary_reported") == "INFO"
        assert set(status.values()) == {"PASS"}

    def test_verify_success_exit_0(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["mc"]["n_paths"] = 3000
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 0
        report = tmp_path / "verify_report.csv"
        assert report.exists()
        first = report.read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and "seed=7" in first


class TestCliOutputs:
    def test_figures_csv_anchor(self, tmp_path):
        path = write_config(tmp_path, BASE)
        assert main(["figures", path, "--figure", "1", "--output-dir", str(tmp_path)]) == 0
        with open(tmp_path / "fig1.csv") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header[0] == "pi"
        row0 = data[0]
        assert float(row0[0]) == 0.0
        # h(0) is gamma-independent
        h_vals = [float(v) for v in row0[1:]]
        assert max(h_vals) - min(h_vals) < 1e-12
        assert h_vals[0] == pytest.approx(0.0611111, abs=1e-6)

    def test_fig4_footnote_beyond_bracket(self, tmp_path):
        """On fig3's market the gamma = 0.99 optimum lies beyond the root
        finder's bracket limit; the footnote says so, not that no optimum
        exists."""
        fig3 = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "fig3.yaml")
        assert main(["figures", fig3, "--figure", "4", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig4.csv").read_text().splitlines()
        assert [l for l in lines if l.startswith("#")][1:] == [
            "# empty cells: optimum beyond bracket at this gamma"
        ]
        assert lines[-1] == "0.98999999999999999,,"

    @pytest.mark.parametrize("config, figure", [("fig1", 2), ("fig3", 4)])
    def test_figure_matches_bench_reference(self, tmp_path, config, figure):
        """Figures 2 and 4 against bench/reference under the benchmark's
        rule: |got - ref| <= 1e-8 max(|got|, |ref|) + 1e-10 per weight cell,
        identical empty cells and case labels, comment lines ignored.  A
        weight outside the rule passes only where mpmath shows that it solves
        h = r - s (s the margin's slope there) and the reference weight does
        not: the flat h of gamma near 1 turns an h error of 1e-11 into a
        weight error above 1e-8."""
        root = os.path.join(os.path.dirname(__file__), "..")
        cfg = os.path.join(root, "demos", "configs", f"{config}.yaml")
        args = ["figures", cfg, "--figure", str(figure), "--output-dir", str(tmp_path)]
        assert main(args) == 0

        def rows(path):
            with open(path) as fh:
                return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]

        params = load_config(cfg).market.regimes[0]

        def residual(gamma, pi):
            slope = params.margin.slopes[bisect.bisect_left(params.margin.breakpoints, pi)]
            return abs(mpmath_h(params, gamma, pi) - (params.r - slope))

        got = rows(tmp_path / f"fig{figure}.csv")
        ref = rows(os.path.join(root, "bench", "reference", f"fig{figure}.csv"))
        assert len(got) == len(ref) and got[0] == ref[0] == ["gamma", "pi_hat", "case"]
        for row, ref_row in zip(got[1:], ref[1:]):
            assert row[2] == ref_row[2], row  # case label
            for a, b in zip(row[:2], ref_row[:2]):
                assert (a == "") == (b == ""), row
                if a:
                    a, b = float(a), float(b)
                    if abs(a - b) > 1e-8 * max(abs(a), abs(b)) + 1e-10:
                        gamma = float(row[0])
                        assert residual(gamma, a) <= 1e-14 < 1e-12 < residual(gamma, b), row

    def test_simulate_writes_paths(self, tmp_path):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        rc = main(
            ["simulate", path, "--paths", "2", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        for k in range(2):
            out = tmp_path / f"path_{k:03d}.csv"
            assert out.exists()
            lines = out.read_text().splitlines()
            assert lines[1].split(",") == ["t", "regime", "S", "V1pi0", "xi", "V"]

    def test_simulate_writes_rows_of_one_ensemble(self, tmp_path, monkeypatch, capsys):
        """path_k.csv is row k of the ensemble of --paths paths, exported
        under the optimal log policy: byte for byte what a one-row
        evaluation of that row writes, whichever block evaluated it."""
        monkeypatch.setattr(cli, "BLOCK_ROWS", 2)  # blocks {0, 1}, {2, 3}, {4}
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        argv = ["simulate", path, "--paths", "5", "--output-dir", str(out_dir)]
        assert main(argv) == 0
        config = load_config(path, {"output_dir": str(out_dir)})
        market, x, T = config.market, config.initial_wealth, config.horizon
        policy = log_optimal_policy(market, x, T)
        ens = simulate_ensemble(market.gen, config.initial_state, T, market.dists, 5, config.seed)
        assert len(set(ens.counts.tolist())) > 1  # blocks pad their shorter rows
        wrote = capsys.readouterr().out.splitlines()
        for k in range(5):
            row = ens.rows(k, k + 1)
            cells = DEFAULT_GRID_POINTS + 1 + row.counts[0]
            buf = io.StringIO()
            export_path_csv(
                wealth_path(x, market, policy.pi, policy.consumption, row).row(0, cells),
                stock_path(market, row, s0=1.0)[1][0],
                buf,
                comment_lines=(f"config_hash={config_hash(config)} seed={config.seed} path={k}",),
            )
            out = out_dir / f"path_{k:03d}.csv"
            assert out.read_text() == buf.getvalue()
            assert wrote[k] == f"wrote {out} ({row.counts[0]} events)"

    def test_value_prints_all_three(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["utility"] = {"variant": "log"}
        path = write_config(tmp_path, data)
        assert main(["value", path]) == 0
        out = capsys.readouterr().out
        assert "semianalytic" in out and "corollary" in out and "monte carlo" in out

    def test_value_prints_power(self, tmp_path, capsys):
        """Power `value` prints the exact J and a Monte Carlo estimate; on
        distinct regimes it calls J the myopic policy's value, not the
        optimal value."""
        path = write_config(tmp_path, BASE)
        assert main(["value", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("optimal value (power gamma=0.5), start regime 0:\n  exact ")
        assert "  monte carlo " in out
        data = copy.deepcopy(BASE)
        data["model"]["regimes"].append(dict(data["model"]["regimes"][0], r=0.03, mu=0.01))
        path = write_config(tmp_path, data, "distinct.yaml")
        assert main(["value", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("value of the per-regime myopic policy (power gamma=0.5)")
        assert "not the optimal value" in out and "  exact " in out


def low_drift(margin):
    """regime_switching.yaml with mu = -0.3 in regime 0 and one margin for
    both regimes."""
    regime = {
        "r": 0.045, "mu": -0.3, "lam": 1.0, "transform": "exponential", "margin": margin,
        "distribution": {"variant": "exponential_positive", "rate": 10.0},
    }
    return {
        "model": {"initial_state": 0, "regimes": [regime, dict(regime, r=0.03, mu=0.01)]},
        "utility": {"variant": "log"},
        "horizon": 1.0,
        "initial_wealth": 1.0,
        "mc": {"n_paths": 100000, "seed": 20260823},
    }


class TestBindingFeasibleEnd:
    """Positive unbounded marks ruin any short position, so the jump-feasible
    weights are pi >= 0; with mu = -0.3 the objective already falls at 0
    (h(0) - r = -0.2339), so regime 0's optimum is the feasible end 0,
    which K does not bound for these margins.  The conjugate over K alone
    rejected it (zeta = 0.233889 outside [0, 0], exit 2)."""

    @pytest.mark.parametrize(
        "margin, pi, cases",
        [
            ({"variant": "frictionless"}, (0.0, 31.5091717971), (1, 2)),
            ({"variant": "short_rebate", "rL": 0.06}, (0.0, 1.0), (1, 3)),
        ],
    )
    def test_optimize_and_verify_exit_0(self, tmp_path, capsys, margin, pi, cases):
        path = write_config(tmp_path, low_drift(margin))
        policy = log_optimal_policy(load_config(path).market, 1.0, 1.0)
        assert policy.cases == cases
        assert policy.pi == pytest.approx(pi, rel=1e-11, abs=0.0)
        assert policy.zeta[0] == pytest.approx(0.233888888889, rel=1e-11)
        for gamma in ([], ["--gamma", "0.5"]):
            for command in ("optimize", "verify"):
                assert main([command, path, *gamma, "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS value_vs_monte_carlo" in out


@pytest.mark.parametrize("command", ["value", "verify"])
def test_non_finite_value_is_a_typed_error(tmp_path, monkeypatch, capsys, command):
    """A NaN exact value is an infeasible policy (exit 2), never a printed nan."""
    monkeypatch.setattr(cli, "exact_value", lambda *a: np.array([math.nan]))
    data = copy.deepcopy(BASE)
    data["utility"] = {"variant": "log"}
    path = write_config(tmp_path, data)
    assert main([command, path, "--output-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out and "no finite value" in err


def test_still_chain_verify_floors_the_standard_error(tmp_path, monkeypatch, capsys):
    """On a still chain the value and martingale samples are constant
    (stderr 7e-19 and 0), so the 3-stderr test must not demand bit
    equality: an exact value moved by one ulp still passes."""
    data = low_drift({"variant": "differential_rates", "R": 0.05})
    data["model"]["regimes"][0]["mu"] = -0.05
    for regime in data["model"]["regimes"]:
        regime["lam"] = 0.0
    path = write_config(tmp_path, data)
    exact = cli.exact_value
    monkeypatch.setattr(cli, "exact_value", lambda *a: np.nextafter(exact(*a), math.inf))
    argv = ["verify", path, "--n-paths", "1000", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "PASS value_vs_monte_carlo" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "value"])
def test_monte_carlo_holds_no_paths_by_jumps_array(tmp_path, monkeypatch, command):
    """verify and value sweep each jump column as it is drawn: at 2,000
    paths with lambda = 50 and T = 10 (about 580 jump columns), the traced
    memory peak up to the end of the Monte Carlo stage (for verify, the
    entry of the pathwise identity, whose rows it keeps) stays below a
    quarter of the (n x m) times and marks arrays."""
    import jumpfolio.verify as verify_mod

    peaks = []
    identity = verify_mod.state_price_wealth_identity

    def spy(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return identity(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "state_price_wealth_identity", spy)
    path = ROOT / "bench" / "configs" / "paths_dense.yaml"
    argv = [command, str(path), "--n-paths", "2000", "--output-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    cfg = load_config(path)
    mkt = cfg.market
    n, m = simulate_ensemble(mkt.gen, cfg.initial_state, cfg.horizon, mkt.dists, 2000, cfg.seed).times.shape
    assert m > 500
    assert peaks[0] < n * m * 16 / 4
