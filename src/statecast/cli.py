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
from .model import ChannelParams, SystemParams, state_variance
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


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    horizon: int
    system: dict
    channel: dict
    scheme: SchemeKind
    samples: int
    seed: int
    baseline: dict
    sweep: dict | None = None

    def system_params(self):
        return SystemParams.make(self.horizon, **self.system)

    def channel_params(self):
        return ChannelParams.make(self.horizon, **self.channel)

    def to_dict(self):
        out = {
            "horizon": self.horizon,
            "system": dict(self.system),
            "channel": dict(self.channel),
            "scheme": self.scheme.value,
            "samples": self.samples,
            "seed": self.seed,
            "baseline": dict(self.baseline),
        }
        if self.sweep is not None:
            out["sweep"] = dict(self.sweep)
        return out

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _field_value(section, key, value, horizon):
    # json accepts NaN and Infinity; they are config errors, not numerical failures
    name = f"{section}.{key}"
    if isinstance(value, (list, tuple)):
        if len(value) != horizon:
            raise ConfigError(name, f"array must have length exactly {horizon}")
        vals = []
        for entry in value:
            if not isinstance(entry, (int, float)) or isinstance(entry, bool):
                raise ConfigError(name, "array entries must be numbers")
            vals.append(float(entry))
        if not all(map(math.isfinite, vals)):
            raise ConfigError(name, "array entries must be finite")
        return vals
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(name, "must be a number or an array of numbers")
    if not math.isfinite(value):
        raise ConfigError(name, "must be finite")
    return float(value)


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

    horizon = data.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ConfigError("horizon", "must be an integer >= 1")

    system = _section(data, "system", _SYSTEM_KEYS, horizon, required_keys=("a",))
    channel = _section(data, "channel", _CHANNEL_KEYS, horizon,
                       required_keys=("P", "N"))

    scheme_raw = data.get("scheme", "FullState")
    try:
        scheme = SchemeKind(scheme_raw)
    except ValueError:
        names = ", ".join(k.value for k in SchemeKind)
        raise ConfigError("scheme", f"must be one of: {names}") from None

    samples = data.get("samples", 0)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
        raise ConfigError("samples", "must be an integer >= 0")

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed", "must be a non-negative integer")

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
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ConfigError(f"baseline.{key}", "must be an integer >= 1")
                baseline[key] = value

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
        vals = []
        for entry in values:
            if not isinstance(entry, (int, float)) or isinstance(entry, bool) or not math.isfinite(entry):
                raise ConfigError("sweep.values", "entries must be finite numbers")
            vals.append(float(entry))
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
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _check_finite(value):
    if value is None or isinstance(value, bool):
        return
    if not math.isfinite(float(value)):
        raise NumericalError("non-finite value in output")


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
    for key, value in footer:
        _check_finite(value)
        lines.append(f"# {key} = {_fmt(value)}")
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
    sigma_sq = state_variance(params)
    if np.max(sigma_sq) > VARIANCE_WARN:
        t = int(np.argmax(sigma_sq > VARIANCE_WARN))
        print(f"warning: state variance exceeds {VARIANCE_WARN:g} at t={t}; "
              "double precision may lose accuracy", file=sys.stderr)


def _analytic(config):
    params = config.system_params()
    _warn_variance(params)
    return analytic_mse(config.scheme, params, config.channel_params())


def run_analytic(config):
    result = _analytic(config)
    return _render_result(result, [("avg_mse_analytic", result.avg_mse_analytic)])


def _simulate(config):
    params = config.system_params()
    _warn_variance(params)
    result = monte_carlo_mse(config.scheme, params, config.channel_params(),
                             config.samples, config.seed)
    return result, [
        ("avg_mse_analytic", result.avg_mse_analytic),
        ("avg_mse_empirical", result.avg_mse_empirical),
        ("samples", result.samples),
    ]


def run_simulate(config):
    if config.samples < 1:
        raise ConfigError("samples", "must be >= 1 for simulate (set --samples)")
    return _render_result(*_simulate(config))


def _baseline_footer(config, avg_analytic):
    bl = alternating_optimize(
        config.system_params(), config.channel_params(),
        restarts=config.baseline["restarts"],
        max_iters=config.baseline["max_iters"],
        tol=config.baseline["tol"],
        seed=config.seed,
        kind=config.scheme,
    )
    gap = (bl.objective - avg_analytic) / avg_analytic
    return [
        ("baseline_objective", bl.objective),
        ("baseline_gap_rel", gap),
        ("baseline_restarts", bl.restarts_run),
        ("baseline_converged", bl.converged),
    ]


def _check_baseline_cap(config):
    if config.horizon > BASELINE_HORIZON_CAP:
        raise ConfigError(
            "horizon",
            f"baseline optimizer works with dense T x T operators and is "
            f"capped at T <= {BASELINE_HORIZON_CAP}; lower the horizon or "
            f"use the analytic/simulate subcommands")


def run_baseline(config):
    _check_baseline_cap(config)
    result = _analytic(config)
    footer = [("avg_mse_analytic", result.avg_mse_analytic)]
    return _render_result(result, footer + _baseline_footer(config, result.avg_mse_analytic))


def run_compare(config):
    if config.samples < 1:
        return run_baseline(config)
    _check_baseline_cap(config)
    result, footer = _simulate(config)
    return _render_result(result, footer + _baseline_footer(config, result.avg_mse_analytic))


def _swept_config(config, field, value):
    section = "system" if field == "a" else "channel"
    return replace(config, **{section: {**getattr(config, section), field: value}})


def run_sweep(config):
    if config.sweep is None:
        raise ConfigError("sweep", "section is required for the sweep subcommand")
    field = config.sweep["field"]
    values = config.sweep["values"]
    if field == "a" and any(abs(v) > 1 for v in values):
        print("warning: |a| > 1: state variance grows geometrically with t",
              file=sys.stderr)
    return "".join(_sweep_pieces(config, field, values))


def _sweep_pieces(config, field, values):
    """Each swept value's '# sweep' line and record, then the summary.  P and
    N sweeps share one transmitter schedule: one run on a (T, K) channel batch."""
    if field == "a":
        results = (_analytic(_swept_config(config, field, value)) for value in values)
    else:
        params = config.system_params()
        _warn_variance(params)
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
    return pieces


_RUNNERS = {
    "analytic": run_analytic,
    "simulate": run_simulate,
    "baseline": run_baseline,
    "compare": run_compare,
    "sweep": run_sweep,
}


def _apply_overrides(config, args):
    samples = config.samples if args.samples is None else args.samples
    if samples < 0:
        raise ConfigError("samples", "must be an integer >= 0")
    seed = config.seed if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError("seed", "must be a non-negative integer")
    baseline = dict(config.baseline)
    if args.restarts is not None:
        if args.restarts < 1:
            raise ConfigError("baseline.restarts", "must be an integer >= 1")
        baseline["restarts"] = args.restarts
    return replace(config, samples=samples, seed=seed, baseline=baseline)


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "wb") as fh:
            fh.write(text.encode("ascii"))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
