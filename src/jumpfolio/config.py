"""Run configuration: YAML schema, validation and model construction.

Schema (all keys required unless a default is noted):

    model:
      initial_state: 0            # chain state at t = 0 (default 0)
      regimes:                    # one entry (replicated) or two
        - r: 0.045                # money-account rate
          mu: -0.05               # stock drift between events
          lam: 1.0                # event intensity = chain exit rate
          transform: exponential  # or identity (default exponential)
          margin:                 # default {variant: frictionless}
            variant: differential_rates   # frictionless | differential_rates | short_rebate
            R: 0.05               # borrowing rate (differential_rates)
            # rL: 0.05            # stock loan fee (short_rebate)
          distribution:
            variant: exponential_positive # exponential_positive | exponential_negative
            rate: 10.0                    # | two_point {y_lo,y_hi,p_hi} | tabulated {grid,density}
    utility:
      variant: log                # log | power
      # gamma: 0.5                # required for power
    constraint:                   # default: the canonical set of regime 0's margin
                                  # variant: all weights (frictionless), [0, inf)
                                  # (differential_rates), (-inf, 1] (short_rebate)
      lower: 0.0                  # may be -.inf
      upper: .inf
    horizon: 1.0                  # finite and positive
    initial_wealth: 1.0           # finite and positive
    mc:
      n_paths: 100000
      seed: 12345
    output_dir: "."               # default "." or $JUMPFOLIO_OUTPUT_DIR

Unknown keys anywhere raise ConfigError naming the dotted field path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import yaml

from .distributions import (
    ExponentialNegative,
    ExponentialPositive,
    Tabulated,
    TwoPoint,
)
from .errors import ConfigError
from .frictions import NO_BORROWING, NO_SHORTING, ConstraintSet, PiecewiseLinearConcave
from .market import MarketModel, RegimeMarketParams
from .policy import Utility

OUTPUT_DIR_ENV = "JUMPFOLIO_OUTPUT_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration; ``market`` and friends are built objects."""

    market: MarketModel
    initial_state: int
    utility: Utility
    horizon: float
    initial_wealth: float
    n_paths: int
    seed: int
    output_dir: str
    raw: dict  # normalised dict form, round-trips through YAML


def _cast(value, cast, field):
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot interpret {value!r}", field=field) from None


def _require(mapping, key, path, cast=None):
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected a mapping at {path}", field=path)
    if key not in mapping:
        raise ConfigError(f"missing required key {path}.{key}", field=f"{path}.{key}")
    return mapping[key] if cast is None else _cast(mapping[key], cast, f"{path}.{key}")


def _reject_unknown(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected a mapping at {path}", field=path)
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}", field=f"{path}.{key}")


def _float(value):
    if isinstance(value, str):
        if value in ("inf", ".inf", "+inf"):
            return math.inf
        if value in ("-inf", "-.inf"):
            return -math.inf
    return float(value)


def _int(value):
    """An integer, or a float or string that is one: a fraction or a bool
    raises ValueError, where int() would truncate or convert it."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _floats(values):
    return [float(v) for v in values]


def _built(path, build, *args, **kwargs):
    """build(*args, **kwargs), with a ConfigError it raises re-raised at
    the dotted path of its field, {path}.{field} (at path if it names none)."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        field = path if exc.field is None else f"{path}.{exc.field}"
        raise ConfigError(exc.message, field=field) from None


def _variant(node, path, variants, what):
    """The entry of variants that node's variant key names."""
    variant = _require(node, "variant", path)
    if not isinstance(variant, str) or variant not in variants:
        raise ConfigError(
            f"unknown {what} variant {variant!r} at {path}.variant", field=f"{path}.variant"
        )
    return variants[variant]


# mark-law variant -> its class and the keys it takes, each with its cast
_DISTRIBUTION_VARIANTS = {
    "exponential_positive": (ExponentialPositive, {"rate": float}),
    "exponential_negative": (ExponentialNegative, {"rate": float}),
    "two_point": (TwoPoint, {"y_lo": float, "y_hi": float, "p_hi": float}),
    "tabulated": (Tabulated, {"grid": _floats, "density": _floats}),
}


def _parse_distribution(node, path):
    law, keys = _variant(node, path, _DISTRIBUTION_VARIANTS, "distribution")
    _reject_unknown(node, {"variant", *keys}, path)
    return _built(path, law, **{key: _require(node, key, path, cast) for key, cast in keys.items()})


# margin variant -> its rate key (None: it takes none), its constructor and
# its canonical constraint set
_MARGIN_VARIANTS = {
    "frictionless": (None, PiecewiseLinearConcave.frictionless, ConstraintSet()),
    "differential_rates": ("R", PiecewiseLinearConcave.differential_rates, NO_SHORTING),
    "short_rebate": ("rL", PiecewiseLinearConcave.short_rebate, NO_BORROWING),
}
_FRICTIONLESS = {"variant": "frictionless"}


def _parse_margin(node, r, path):
    node = _FRICTIONLESS if node is None else node
    key, build, _ = _variant(node, path, _MARGIN_VARIANTS, "margin")
    if key is None:
        _reject_unknown(node, {"variant"}, path)
        return build()
    _reject_unknown(node, {"variant", key}, path)
    return _built(path, build, r, _require(node, key, path, float))


def _parse_regime(node, path):
    _reject_unknown(node, {"r", "mu", "lam", "transform", "margin", "distribution"}, path)
    regime = _built(
        path, RegimeMarketParams,
        r=_require(node, "r", path, float),
        mu=_require(node, "mu", path, float),
        lam=_require(node, "lam", path, float),
        dist=_parse_distribution(_require(node, "distribution", path), f"{path}.distribution"),
        transform=node.get("transform", "exponential"),
    )
    # the margin reads the r the regime has checked, so a bad r is reported there
    margin = _parse_margin(node.get("margin"), regime.r, f"{path}.margin")
    return replace(regime, margin=margin)


def parse_config(data: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a config mapping (plus CLI overrides) into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    data = copy.deepcopy(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _apply_override(data, key, value)

    _reject_unknown(
        data,
        {
            "model",
            "utility",
            "constraint",
            "horizon",
            "initial_wealth",
            "mc",
            "output_dir",
        },
        "config",
    )

    model = _require(data, "model", "config")
    _reject_unknown(model, {"initial_state", "regimes"}, "config.model")
    initial_state = _cast(model.get("initial_state", 0), _int, "config.model.initial_state")
    if initial_state not in (0, 1):
        raise ConfigError(
            "config.model.initial_state must be 0 or 1",
            field="config.model.initial_state",
        )
    regimes_node = _require(model, "regimes", "config.model")
    if not isinstance(regimes_node, list) or len(regimes_node) not in (1, 2):
        raise ConfigError(
            "config.model.regimes must list one or two regimes",
            field="config.model.regimes",
        )
    regimes = [
        _parse_regime(node, f"config.model.regimes[{i}]")
        for i, node in enumerate(regimes_node)
    ]
    if len(regimes) == 1:
        regimes = [regimes[0], regimes[0]]

    util_node = _require(data, "utility", "config")
    variant = _require(util_node, "variant", "config.utility")
    if variant == "log":
        _reject_unknown(util_node, {"variant", "gamma"}, "config.utility")
        if util_node.get("gamma") not in (None, 0, 0.0):
            raise ConfigError(
                "log utility does not take a nonzero gamma",
                field="config.utility.gamma",
            )
        utility = Utility.log()
    elif variant == "power":
        _reject_unknown(util_node, {"variant", "gamma"}, "config.utility")
        gamma = _require(util_node, "gamma", "config.utility", float)
        utility = _built("config.utility", Utility.power, gamma)
    else:
        raise ConfigError(
            f"unknown utility variant {variant!r}", field="config.utility.variant"
        )

    if "constraint" in data:
        cnode = data["constraint"]
        _reject_unknown(cnode, {"lower", "upper"}, "config.constraint")
        constraint = _built(
            "config.constraint", ConstraintSet,
            lower=_cast(cnode.get("lower", -math.inf), _float, "config.constraint.lower"),
            upper=_cast(cnode.get("upper", math.inf), _float, "config.constraint.upper"),
        )
    else:  # the canonical set of regime 0's margin variant
        margin = regimes_node[0].get("margin") or _FRICTIONLESS
        constraint = _MARGIN_VARIANTS[margin["variant"]][2]

    market = _built("config.model.regimes", MarketModel, tuple(regimes), constraint)

    horizon = _require(data, "horizon", "config", float)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError(
            f"config.horizon must be finite and positive, got {horizon}",
            field="config.horizon",
        )
    x = _require(data, "initial_wealth", "config", float)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(
            f"config.initial_wealth must be finite and positive, got {x}",
            field="config.initial_wealth",
        )

    mc = _require(data, "mc", "config")
    _reject_unknown(mc, {"n_paths", "seed"}, "config.mc")
    n_paths = _require(mc, "n_paths", "config.mc", _int)
    if n_paths < 2:
        raise ConfigError(
            "config.mc.n_paths must be at least 2: a standard error needs two paths",
            field="config.mc.n_paths",
        )
    seed = _require(mc, "seed", "config.mc", _int)
    if seed < 0:
        raise ConfigError(
            f"a sample's seed must be a nonnegative integer, got {seed}", field="config.mc.seed"
        )

    output_dir = data.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV, ".")

    return RunConfig(
        market=market,
        initial_state=initial_state,
        utility=utility,
        horizon=horizon,
        initial_wealth=x,
        n_paths=n_paths,
        seed=seed,
        output_dir=str(output_dir),
        raw=_normalise(data, output_dir),
    )


def _apply_override(data, dotted, value):
    """Set a dotted path like 'utility.gamma' or 'mc.seed' in the raw mapping."""
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-mapping {key}", field=dotted)
    node[keys[-1]] = value


def _normalise(data, output_dir):
    out = json.loads(json.dumps(data, default=_json_default))
    out["output_dir"] = str(output_dir)
    return out


def _json_default(obj):
    try:
        return obj.tolist()
    except AttributeError:
        return str(obj)


# libyaml's parser where PyYAML was built with it, else the pure-Python
# one; both build the same safe objects
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a YAML config file; a file that is not valid
    YAML raises ConfigError naming the path and the place."""
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}: not valid YAML{where}: {problem}") from exc
    return parse_config(data, overrides)


def config_hash(config: RunConfig) -> str:
    """Short content hash for CSV provenance headers."""
    canonical = json.dumps(config.raw, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
