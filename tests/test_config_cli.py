import bisect
import copy
import csv
import io
import os
import sys

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

    def test_output_dir_env(self, monkeypatch):
        monkeypatch.setenv("JUMPFOLIO_OUTPUT_DIR", "/tmp/somewhere")
        cfg = parse_config(copy.deepcopy(BASE))
        assert cfg.output_dir == "/tmp/somewhere"


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

    def test_infeasible_model_exit_2(self, tmp_path, capsys):
        data = copy.deepcopy(BASE)
        data["model"]["regimes"][0]["mu"] = 0.06  # violates R > mu
        path = write_config(tmp_path, data)
        assert main(["optimize", path]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_verify_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        import jumpfolio.cli as cli_mod
        from jumpfolio.verify import McEstimate

        monkeypatch.setattr(
            cli_mod.verify_mod,
            "martingale_factor_check",
            lambda *a, **k: McEstimate(mean=2.0, stderr=1e-6, n_paths=10, seed=0),
        )
        data = copy.deepcopy(BASE)
        data["mc"]["n_paths"] = 200
        path = write_config(tmp_path, data)
        assert main(["verify", path, "--output-dir", str(tmp_path)]) == 3
        assert "FAIL state_price_martingale" in capsys.readouterr().out

    def test_verify_draws_each_sample_once(self, tmp_path, monkeypatch, capsys):
        """One ensemble serves every check, the pathwise identities
        included, and nothing else draws random numbers."""
        import jumpfolio.mpp as mpp

        calls = []
        inside = []
        original = mpp.simulate_ensemble

        def counted(*args, **kwargs):
            calls.append("simulate_ensemble")
            inside.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "jumpfolio" and getattr(mod, "simulate_ensemble", None) is original:
                monkeypatch.setattr(mod, "simulate_ensemble", counted)
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
        assert calls == ["simulate_ensemble"]

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
        monkeypatch.setattr(cli, "SIMULATE_BLOCK_ROWS", 2)  # blocks {0, 1}, {2, 3}, {4}
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

    def test_value_requires_log(self, tmp_path):
        path = write_config(tmp_path, BASE)
        assert main(["value", path]) == 1
