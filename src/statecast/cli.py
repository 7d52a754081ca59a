"""Experiment runner: JSON config in, CSV out.

Subcommands: ``analytic`` (exact per-step MSE), ``simulate`` (adds Monte
Carlo columns), ``baseline`` (brute-force optimizer footer), ``compare``
(all three), ``sweep`` (repeat analytic over one swept field and append a
summary table).

Output is CSV with header ``t,mse_analytic,mse_empirical,stderr,power_used``,
12 significant digits, LF line endings and ``#``-prefixed footer lines, so
fixed (config, seed) runs are byte-identical.  Exit codes: 0 success, 2
config error, 3 numerical failure (non-finite value in the output).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .baseline import alternating_optimize
from .model import _SEED_BOUND, ChannelParams, SystemParams, state_variance
from .scheme import RunResult, SchemeKind, analytic_mse, monte_carlo_mse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

BASELINE_HORIZON_CAP = 50
VARIANCE_WARN = 1e12

_SYSTEM_KEYS = ("a", "b", "c", "d", "V_ww", "V_vv", "V_wv", "x0")
_CHANNEL_KEYS = ("P", "N")
_BASELINE_DEFAULTS = {"restarts": 20, "max_iters": 4000, "tol": 1e-11}
_SWEEP_FIELDS = ("P", "N", "a")


class ConfigError(ValueError):
    """Config problem, reported with the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: int
    system: dict
    channel: dict
    scheme: SchemeKind
    samples: int
    seed: int
    baseline: dict
    sweep: dict | None = None

    def system_params(self, **swept):
        return SystemParams.make(self.horizon, **{**self.system, **swept})

    def channel_params(self):
        return ChannelParams.make(self.horizon, **self.channel)


def _field_value(section, key, value, horizon):
    # json accepts NaN and Infinity; they are config errors, not numerical failures
    name = f"{section}.{key}"
    if isinstance(value, (list, tuple)):
        if key == "x0":
            raise ConfigError(name, "must be a number")
        if len(value) != horizon:
            raise ConfigError(name, f"array must have length exactly {horizon}")
        # one check per distinct entry type, then one pass for finiteness
        types = set(map(type, value))
        if any(t is bool or not issubclass(t, (int, float)) for t in types):
            raise ConfigError(name, "array entries must be numbers")
        vals = list(value) if types == {float} else list(map(float, value))
        if not all(map(math.isfinite, vals)):
            raise ConfigError(name, "array entries must be finite")
        return vals
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(name, "must be a number or an array of numbers")
    if not math.isfinite(value):
        raise ConfigError(name, "must be finite")
    return float(value)


def _integer(value, name, least, below=None):
    if (not isinstance(value, int) or isinstance(value, bool) or value < least
            or below is not None and value >= below):
        bound = "" if below is None else f" and < {below}"
        raise ConfigError(name, f"must be an integer >= {least}{bound}")
    return value


def _section(data, name, allowed, horizon, required_keys=()):
    raw = data.get(name)
    if raw is None:
        raise ConfigError(name, "section is required")
    if not isinstance(raw, dict):
        raise ConfigError(name, "must be an object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown field")
    for key in required_keys:
        if key not in raw:
            raise ConfigError(f"{name}.{key}", "field is required")
    return {key: _field_value(name, key, raw[key], horizon) for key in raw}


def parse_config(data):
    """Validate a decoded JSON object and return an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    known = {"horizon", "system", "channel", "scheme", "samples", "seed",
             "baseline", "sweep"}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")

    horizon = _integer(data.get("horizon"), "horizon", 1)

    system = _section(data, "system", _SYSTEM_KEYS, horizon, required_keys=("a",))
    channel = _section(data, "channel", _CHANNEL_KEYS, horizon,
                       required_keys=("P", "N"))

    scheme_raw = data.get("scheme", "FullState")
    try:
        scheme = SchemeKind(scheme_raw)
    except ValueError:
        names = ", ".join(k.value for k in SchemeKind)
        raise ConfigError("scheme", f"must be one of: {names}") from None

    samples = _integer(data.get("samples", 0), "samples", 0)
    seed = _integer(data.get("seed", 0), "seed", 0, _SEED_BOUND)

    baseline = dict(_BASELINE_DEFAULTS)
    if "baseline" in data:
        raw = data["baseline"]
        if not isinstance(raw, dict):
            raise ConfigError("baseline", "must be an object")
        for key, value in raw.items():
            if key not in _BASELINE_DEFAULTS:
                raise ConfigError(f"baseline.{key}", "unknown field")
            if key == "tol":
                if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
                    raise ConfigError("baseline.tol", "must be a number > 0")
                baseline[key] = float(value)
            else:
                baseline[key] = _integer(value, f"baseline.{key}", 1)

    sweep = None
    if "sweep" in data:
        raw = data["sweep"]
        if not isinstance(raw, dict):
            raise ConfigError("sweep", "must be an object")
        for key in raw:
            if key not in ("field", "values"):
                raise ConfigError(f"sweep.{key}", "unknown field")
        field = raw.get("field")
        if field not in _SWEEP_FIELDS:
            raise ConfigError("sweep.field", f"must be one of: {', '.join(_SWEEP_FIELDS)}")
        values = raw.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError("sweep.values", "must be a non-empty array of numbers")
        try:
            vals = _field_value("sweep", "values", values, len(values))
        except ConfigError:
            raise ConfigError("sweep.values", "entries must be finite numbers") from None
        sweep = {"field": field, "values": vals}

    return ExperimentConfig(horizon=horizon, system=system, channel=channel,
                            scheme=scheme, samples=samples, seed=seed,
                            baseline=baseline, sweep=sweep)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    return parse_config(data)


def _fmt(value):
    """Footer text of one value; NumericalError for a non-finite number."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not math.isfinite(value):
        raise NumericalError("non-finite value in output")
    return f"{float(value):.12g}"


def _table(columns):
    """CSV lines from columns of numbers (None: empty cells), with one
    finiteness check per column and one format call per line."""
    specs, data = [], []
    for column in columns:
        if column is None:
            specs.append("")
            continue
        arr = np.asarray(column)
        if not np.isfinite(arr).all():
            raise NumericalError("non-finite value in output")
        specs.append("{}" if arr.dtype.kind in "iu" else "{:.12g}")
        data.append(arr.tolist())
    return map(",".join(specs).format, *data) if data else ()


def _render(columns, footer):
    lines = ["t,mse_analytic,mse_empirical,stderr,power_used", *_table(columns)]
    lines += [f"# {key} = {_fmt(value)}" for key, value in footer]
    return "\n".join(lines) + "\n"


def render_record(rows, footer):
    """CSV text for one experiment: header, per-t rows, '#' footer lines.
    Each column of the rows holds numbers only or None only."""
    return _render([None if all(v is None for v in column) else column
                    for column in zip(*rows)], footer)


def _render_result(result, footer):
    steps = np.arange(1, len(result.mse_analytic) + 1)
    return _render((steps, result.mse_analytic, result.mse_empirical,
                    result.stderr, result.power_used), footer)


def _warn_variance(params):
    """``params``, after a warning if the state variance passes VARIANCE_WARN."""
    sigma_sq = state_variance(params)
    if np.max(sigma_sq) > VARIANCE_WARN:
        t = int(np.argmax(sigma_sq > VARIANCE_WARN))
        print(f"warning: state variance exceeds {VARIANCE_WARN:g} at t={t}; "
              "double precision may lose accuracy", file=sys.stderr)
    return params


def _run(config, sample, certify):
    """One record: the exact per-step MSE, the Monte Carlo columns if
    ``sample`` and the certifier's footer lines if ``certify``."""
    if sample and config.samples < 1:
        raise ConfigError("samples", "must be >= 1 for simulate (set --samples)")
    if certify and config.horizon > BASELINE_HORIZON_CAP:
        raise ConfigError(
            "horizon",
            f"baseline optimizer works with dense T x T operators and is "
            f"capped at T <= {BASELINE_HORIZON_CAP}; lower the horizon or "
            f"use the analytic/simulate subcommands")
    params, channel = _warn_variance(config.system_params()), config.channel_params()
    if sample:
        result = monte_carlo_mse(config.scheme, params, channel, config.samples, config.seed)
    else:
        result = analytic_mse(config.scheme, params, channel)
    avg = result.avg_mse_analytic
    footer = [("avg_mse_analytic", avg)]
    if sample:
        footer += [("avg_mse_empirical", result.avg_mse_empirical),
                   ("samples", result.samples)]
    if certify:
        best = alternating_optimize(params, channel, **config.baseline,
                                    seed=config.seed, kind=config.scheme)
        footer += [("baseline_objective", best.objective),
                   ("baseline_gap_rel", (best.objective - avg) / avg),
                   ("baseline_restarts", best.restarts_run),
                   ("baseline_converged", best.converged)]
    del params, channel  # freed before rendering, which sets the peak on long horizons
    return _render_result(result, footer)


def _sweep(config):
    """Each swept value's '# sweep' line and record, then the summary.  P and
    N sweeps share one transmitter schedule: one run on a (T, K) channel batch."""
    if config.sweep is None:
        raise ConfigError("sweep", "section is required for the sweep subcommand")
    field, values = config.sweep["field"], config.sweep["values"]
    if field == "a":
        if any(abs(v) > 1 for v in values):
            print("warning: |a| > 1: state variance grows geometrically with t",
                  file=sys.stderr)
        results = (analytic_mse(config.scheme, _warn_variance(config.system_params(a=v)),
                                config.channel_params()) for v in values)
    else:
        params = _warn_variance(config.system_params())
        other = "N" if field == "P" else "P"
        shape = (config.horizon, len(values))
        fixed = np.reshape(config.channel[other], (-1, 1))
        batch = analytic_mse(config.scheme, params, ChannelParams(
            **{field: np.broadcast_to(values, shape), other: np.broadcast_to(fixed, shape)}))
        results = map(RunResult, batch.mse_analytic.T, batch.avg_mse_analytic.tolist(),
                      batch.power_used.T)
    pieces, averages = [], []
    for value, result in zip(values, results):
        averages.append(result.avg_mse_analytic)
        pieces.append(f"# sweep {field} = {_fmt(value)}\n")
        pieces.append(_render_result(result, [("avg_mse_analytic", result.avg_mse_analytic)]))
    summary = [f"{field},avg_mse_analytic", *_table((values, averages))]
    pieces.append("# sweep summary\n" + "\n".join(summary) + "\n")
    return "".join(pieces)


_RUNNERS = {
    "analytic": lambda config: _run(config, sample=False, certify=False),
    "simulate": lambda config: _run(config, sample=True, certify=False),
    "baseline": lambda config: _run(config, sample=False, certify=True),
    "compare": lambda config: _run(config, sample=config.samples >= 1, certify=True),
    "sweep": _sweep,
}


def _apply_overrides(config, args):
    """The config with the --samples, --seed and --restarts values given,
    checked by the rules of parse_config."""
    samples = config.samples if args.samples is None else _integer(args.samples, "samples", 0)
    seed = config.seed if args.seed is None else _integer(args.seed, "seed", 0, _SEED_BOUND)
    baseline = dict(config.baseline)
    if args.restarts is not None:
        baseline["restarts"] = _integer(args.restarts, "baseline.restarts", 1)
    return replace(config, samples=samples, seed=seed, baseline=baseline)


def _write(path, text):
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("ascii"))
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {path}: {exc}") from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="statecast",
        description="Optimal linear transmission of a scalar plant state "
                    "over a power-constrained Gaussian channel.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "analytic": "exact per-step MSE of the selected scheme",
        "simulate": "Monte Carlo run alongside the analytic values",
        "baseline": "brute-force optimizer over causal linear schemes",
        "compare": "analytic + Monte Carlo + baseline in one table",
        "sweep": "repeat the analytic run over a swept parameter",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        p.add_argument("--samples", type=int, default=None,
                       help="override config samples")
        p.add_argument("--seed", type=int, default=None,
                       help="override config seed")
        p.add_argument("--restarts", type=int, default=None,
                       help="override baseline restarts")
    args = parser.parse_args(argv)

    try:
        config = _apply_overrides(load_config(args.config), args)
        with np.errstate(all="ignore"):  # the renderer reports non-finite output
            text = _RUNNERS[args.command](config)
        if args.out is None:
            sys.stdout.write(text)
        else:
            _write(args.out, text)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
