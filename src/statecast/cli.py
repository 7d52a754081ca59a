"""Experiment runner: JSON config in, CSV out.

Subcommands: ``analytic`` (exact per-step MSE), ``simulate`` (adds Monte
Carlo columns), ``baseline`` (brute-force optimizer footer), ``compare``
(all three), ``sweep`` (repeat analytic over one swept field and append a
summary table).

Output is CSV with header ``t,mse_analytic,mse_empirical,stderr,power_used``,
12 significant digits (one %-format per record), LF line endings and
``#``-prefixed footer lines, so fixed (config, seed) runs are byte-identical.
Exit codes: 0 success, 2 config error, 3 numerical failure (non-finite value).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .baseline import alternating_optimize
from .model import _SEED_BOUND, ChannelParams, SystemParams, state_variance
from .scheme import SchemeKind, analytic_mse, monte_carlo_mse, mse_floor

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
        return _refused("system", SystemParams.make, self.horizon, **{**self.system, **swept})

    def channel_params(self):
        return _refused("channel", ChannelParams.make, self.horizon, **self.channel)


def _refused(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError it raises is a config error of ``section``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from None


def _numbers(value, name, length=None):
    """The one check of a config number: ``value`` as a float, or, given a
    ``length``, also an array of ``length`` entries as a list of floats."""
    # json accepts NaN and Infinity; they are config errors, not numerical failures
    if isinstance(value, (list, tuple)):
        if length is None:
            raise ConfigError(name, "must be a number")
        if len(value) != length:
            raise ConfigError(name, f"array must have length exactly {length}")
        # one check per distinct entry type, then one pass for finiteness
        types = set(map(type, value))
        if any(t is bool or not issubclass(t, (int, float)) for t in types):
            raise ConfigError(name, "array entries must be numbers")
        vals = list(value) if types == {float} else list(map(float, value))
        if not all(map(math.isfinite, vals)):
            raise ConfigError(name, "array entries must be finite")
        return vals
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(name, "must be a number" if length is None
                          else "must be a number or an array of numbers")
    if not math.isfinite(value):
        raise ConfigError(name, "must be finite")
    return float(value)


def _integer(value, name, least, below=None):
    if (not isinstance(value, int) or isinstance(value, bool) or value < least
            or below is not None and value >= below):
        bound = "" if below is None else f" and < {below}"
        raise ConfigError(name, f"must be an integer >= {least}{bound}")
    return value


def _object(raw, name, allowed):
    """``raw`` once it is an object of ``allowed`` fields; ``name`` is its
    section, which prefixes each field's name ('' at the top level)."""
    if not isinstance(raw, dict):
        raise ConfigError(name or "config", "must be an object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}" if name else key, "unknown field")
    return raw


def _section(data, name, allowed, horizon, required_keys=()):
    if data.get(name) is None:
        raise ConfigError(name, "section is required")
    raw = _object(data[name], name, allowed)
    for key in required_keys:
        if key not in raw:
            raise ConfigError(f"{name}.{key}", "field is required")
    return {key: _numbers(value, f"{name}.{key}", None if key == "x0" else horizon)
            for key, value in raw.items()}


def parse_config(data):
    """Validate a decoded JSON object and return an ExperimentConfig."""
    _object(data, "", ("horizon", "system", "channel", "scheme", "samples", "seed",
                       "baseline", "sweep"))
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
    for key, value in _object(data.get("baseline", {}), "baseline", _BASELINE_DEFAULTS).items():
        if key == "tol":
            baseline[key] = _numbers(value, "baseline.tol")
            if not baseline[key] > 0:
                raise ConfigError("baseline.tol", "must be a number > 0")
        else:
            baseline[key] = _integer(value, f"baseline.{key}", 1)

    sweep = None
    if "sweep" in data:
        raw = _object(data["sweep"], "sweep", ("field", "values"))
        field = raw.get("field")
        if field not in _SWEEP_FIELDS:
            raise ConfigError("sweep.field", f"must be one of: {', '.join(_SWEEP_FIELDS)}")
        values = raw.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError("sweep.values", "must be a non-empty array of numbers")
        sweep = {"field": field, "values": _numbers(values, "sweep.values", len(values))}

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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not math.isfinite(value):
        raise NumericalError("non-finite value in output")
    return f"{float(value):.12g}"


_HEADER = "t,mse_analytic,mse_empirical,stderr,power_used\n"


def _bodies(columns):
    """Yield each record's CSV rows as one string.  A column is None (empty
    cells), a (T,) array all records share or a (T, K) array, one column per
    record.  A record's rows are one %-format, ``(line * T) % values``; a column
    of one bit pattern in a record (bits: -0.0 prints -0) is literal text of
    the line.  One finiteness check per column; a record converts only its own
    values to Python numbers, so a batch never holds them all at once."""
    cells, records, rows = [], 1, 0
    for column in columns:
        if column is None:
            cells.append(([True], [""], None))
            continue
        arr = np.asarray(column)
        if not np.isfinite(arr).all():
            raise NumericalError("non-finite value in output")
        spec = "%d" if arr.dtype.kind in "iu" else "%.12g"
        arr = arr[:, None] if arr.ndim == 1 else arr
        bits = arr if spec == "%d" else arr.astype(float, copy=False).view(np.int64)
        same = ((bits == bits[:1]).all(axis=0) & (len(arr) > 0)).tolist()
        first = [spec % v for v in arr[0].tolist()] if any(same) else [spec] * len(same)
        cells.append((same, [f if s else spec for f, s in zip(first, same)], arr))
        records, rows = max(records, arr.shape[1]), len(arr)
    for k in range(records):
        line, varying = [], []
        for same, texts, arr in cells:
            j = k if len(same) > 1 else 0
            line.append(texts[j])
            if not same[j]:
                varying.append(arr[:, j].tolist())
        flat = [None] * (rows * len(varying))
        for i, values in enumerate(varying):
            flat[i::len(varying)] = values
        yield (",".join(line) + "\n") * rows % tuple(flat)


def _render(columns, footer):
    return _HEADER + next(_bodies(columns)) + "".join(
        f"# {key} = {_fmt(value)}\n" for key, value in footer)


def render_record(rows, footer):
    """CSV text for one experiment: header, per-t rows, '#' footer lines.
    Each column of the rows holds numbers only or None only."""
    return _render([None if all(v is None for v in column) else column
                    for column in zip(*rows)], footer)


def _columns(result):
    return (np.arange(1, len(result.mse_analytic) + 1), result.mse_analytic,
            result.mse_empirical, result.stderr, result.power_used)


def _warn_variance(params):
    """``params``, after a warning if the state variance passes VARIANCE_WARN."""
    # Var x(t) <= q / (1 - rho) for rho = max a^2 < 1, q = max b^2 * max V_ww.  A loop step
    # is off by at most 3 * 2**-53 relative, the bound by a few more; a 1e-9 margin covers both
    a, b, ww = (float(max(x.max(), -x.min())) for x in (params.a, params.b, params.V[:, 0, 0]))
    rho, q = a * a * (1 + 1e-9), b * b * ww * (1 + 1e-9)
    if rho < 1 and q <= VARIANCE_WARN * (1 - rho):
        return params
    over = state_variance(params) > VARIANCE_WARN
    if over.any():
        print(f"warning: state variance exceeds {VARIANCE_WARN:g} at t={int(np.argmax(over))}; "
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
        footer += [("avg_mse_floor", float(np.mean(mse_floor(config.scheme, params, channel)))),
                   ("baseline_objective", best.objective),
                   # avg is 0 only where Var x(t) = 0 throughout: Hx = 0, objective 0
                   ("baseline_gap_rel", (best.objective - avg) / avg if avg else 0.0),
                   ("baseline_restarts", best.restarts_run),
                   ("baseline_converged", best.converged)]
    del params, channel  # freed before rendering, which sets the peak on long horizons
    return _render(_columns(result), footer)


def _sweep(config):
    """Each swept value's '# sweep' line and record, then the summary.  P and N
    sweeps run and render as one (T, K) channel batch: one transmitter schedule."""
    if config.sweep is None:
        raise ConfigError("sweep", "section is required for the sweep subcommand")
    field, values = config.sweep["field"], config.sweep["values"]
    if field == "a":
        if any(abs(v) > 1 for v in values):
            print("warning: |a| > 1: state variance grows geometrically with t",
                  file=sys.stderr)
        channel = config.channel_params()
        results = (analytic_mse(config.scheme, _warn_variance(config.system_params(a=v)),
                                channel) for v in values)
        records = ((next(_bodies(_columns(result))), result.avg_mse_analytic) for result in results)
    else:
        params = _warn_variance(config.system_params())
        other = "N" if field == "P" else "P"
        shape = (config.horizon, len(values))
        fixed = np.reshape(config.channel[other], (-1, 1))
        try:
            channels = ChannelParams(**{field: np.broadcast_to(values, shape),
                                        other: np.broadcast_to(fixed, shape)})
        except ValueError as exc:  # the library's message opens with the field it refuses
            raise ConfigError("sweep.values" if str(exc).startswith(field) else "channel",
                              str(exc)) from None
        batch = analytic_mse(config.scheme, params, channels)
        del channels  # its (T, K) P and N are freed before rendering
        records = zip(_bodies(_columns(batch)), batch.avg_mse_analytic.tolist())
    pieces, summary = [], [f"# sweep summary\n{field},avg_mse_analytic\n"]
    for value, (body, average) in zip(values, records):
        value, average = _fmt(value), _fmt(average)  # once, for the record and the summary
        pieces.append(f"# sweep {field} = {value}\n{_HEADER}{body}# avg_mse_analytic = {average}\n")
        summary.append(f"{value},{average}\n")
    return "".join(pieces + summary)


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


@functools.cache
def _parser():
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
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        for flag, what in (("samples", "config samples"), ("seed", "config seed"),
                           ("restarts", "baseline restarts")):
            p.add_argument(f"--{flag}", type=int, default=None, help=f"override {what}")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        config = _apply_overrides(load_config(args.config), args)
        with np.errstate(all="ignore"):  # the renderer reports non-finite output
            text = _RUNNERS[args.command](config)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(text.encode("ascii"))
            except OSError as exc:
                raise ConfigError("--out", f"cannot write {args.out}: {exc}") from None
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
