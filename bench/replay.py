"""Traced replay: one workload case re-run layer by layer from outside.

The CLI call of a case is replayed by calling the public functions of
``statecast`` in the order the CLI runs them, one span per call:

    cli.parse -> model.params -> model.state_variance -> [noise, plant,
    filters and schedules] -> scheme.* -> [baseline.*] -> cli.render

Spans the CLI runs as a stage of its own have ``inside=None``; their sum is
compared with the CLI's wall time.  A span with ``inside="scheme"`` or
``inside="baseline"`` re-runs, on the same inputs, a call that the scheme or
optimizer makes internally, so that layer's cost can be read from outside.
The scheme's self time is then estimated as its stage span minus those
same-input spans.  The FullState scalar decoder has no public function, so
its cost stays in that self time.

The replay renders each record with ``cli.render_record`` to time the
rendering, but its results, not its bytes, are compared with the CLI's
output (``checks.check_replay``), so footer lines the CLI adds later do not
break the comparison.

Only these names of ``statecast`` are used: cli.load_config,
cli.render_record, SystemParams.make, ChannelParams.make, RngSeed,
state_variance, draw_noise, paths_from_noise, transmitter_gain_schedule,
transmitter_filter, coupled_decoder_schedule, coupled_decoder_filter,
analytic_mse, sample_paths, monte_carlo_mse, alternating_optimize, build_H,
and the noise roles ROLE_PROCESS and ROLE_MEASUREMENT of statecast.model,
which ``draw_noise`` needs to draw the same streams as the CLI.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

from statecast import (
    ChannelParams,
    RngSeed,
    SystemParams,
    alternating_optimize,
    analytic_mse,
    build_H,
    coupled_decoder_filter,
    coupled_decoder_schedule,
    draw_noise,
    monte_carlo_mse,
    paths_from_noise,
    sample_paths,
    state_variance,
    transmitter_filter,
    transmitter_gain_schedule,
)
from statecast import cli
from statecast.model import ROLE_MEASUREMENT, ROLE_PROCESS

from workloads import COUPLED, FULL


class Tracer:
    """In-memory spans: name, start, end, parent span id and config id.

    With ``memory=True`` the first scheme-stage span of each config runs
    under tracemalloc and records the peak traced bytes inside it.  Only the
    first, because tracemalloc slows the Python-level schedule loops by 25
    to 40 times; the other calls of a sweep allocate the same.
    """

    def __init__(self, memory=False):
        self.spans = []
        self.memory = memory
        self._stack = []
        self._memory_done = set()

    @contextmanager
    def span(self, name, config, inside=None, **attrs):
        record = {"id": len(self.spans), "name": name, "config": config,
                  "parent": self._stack[-1] if self._stack else None,
                  "inside": inside, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        watch = (self.memory and inside is None and name.startswith("scheme.")
                 and config not in self._memory_done)
        if watch:
            self._memory_done.add(config)
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if watch:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()


def _rows(result):
    emp, se = result.mse_empirical, result.stderr
    return [(i + 1, result.mse_analytic[i],
             None if emp is None else emp[i], None if se is None else se[i],
             result.power_used[i]) for i in range(len(result.mse_analytic))]


def _render(tr, cid, result):
    # the CLI's rendering work; its bytes are not compared (see checks.check_replay)
    with tr.span("cli.render", cid):
        cli.render_record(_rows(result), [("avg_mse_analytic", result.avg_mse_analytic)])


def _params(tr, cid, horizon, system, channel):
    with tr.span("model.params", cid):
        params = SystemParams.make(horizon, **system)
        chan = ChannelParams.make(horizon, **channel)
    with tr.span("model.state_variance", cid):
        state_variance(params)
    return params, chan


def _analytic(tr, cid, path, kind, params, chan):
    if path != FULL:
        with tr.span("kalman.tx_schedule", cid, inside="scheme"):
            gains = transmitter_gain_schedule(params)
        if path == COUPLED:
            with tr.span("kalman.coupled_schedule", cid, inside="scheme"):
                coupled_decoder_schedule(params, chan, gains)
    with tr.span("scheme.analytic", cid):
        return analytic_mse(kind, params, chan)


def _replay_analytic(tr, cid, case, cfg):
    params, chan = _params(tr, cid, cfg.horizon, cfg.system, cfg.channel)
    result = _analytic(tr, cid, case.path, cfg.scheme, params, chan)
    _render(tr, cid, result)
    return [result], None


def _replay_sweep(tr, cid, case, cfg):
    field = cfg.sweep["field"]
    results = []
    for value in cfg.sweep["values"]:
        system, channel = dict(cfg.system), dict(cfg.channel)
        (system if field == "a" else channel)[field] = value
        params, chan = _params(tr, cid, cfg.horizon, system, channel)
        results.append(_analytic(tr, cid, case.path, cfg.scheme, params, chan))
        _render(tr, cid, results[-1])
    return results, None


def _replay_simulate(tr, cid, case, cfg):
    params, chan = _params(tr, cid, cfg.horizon, cfg.system, cfg.channel)
    n, seed = cfg.samples, RngSeed(cfg.seed)
    with tr.span("model.noise", cid, inside="scheme") as span:
        w, v = draw_noise(params, n, seed.stream(ROLE_PROCESS), seed.stream(ROLE_MEASUREMENT))
        span["bytes_computed"] = w.nbytes + v.nbytes
    with tr.span("model.plant", cid, inside="scheme"):
        _, gamma = paths_from_noise(params, w, v)
    del w, v
    if case.path != FULL:
        with tr.span("kalman.tx_schedule", cid, inside="scheme"):
            gains = transmitter_gain_schedule(params)
        with tr.span("kalman.tx_filter", cid, inside="scheme"):
            transmitter_filter(params, gains, gamma)
    del gamma
    with tr.span("scheme.sample_paths", cid, inside="scheme"):
        y = sample_paths(cfg.scheme, params, chan, n, cfg.seed).y
    if case.path == COUPLED:
        with tr.span("kalman.coupled_schedule", cid, inside="scheme"):
            schedule = coupled_decoder_schedule(params, chan, gains)
        with tr.span("kalman.coupled_filter", cid, inside="scheme"):
            coupled_decoder_filter(schedule, params, y)
    del y
    with tr.span("scheme.analytic", cid, inside="scheme"):
        analytic_mse(cfg.scheme, params, chan)
    with tr.span("scheme.mc", cid):
        result = monte_carlo_mse(cfg.scheme, params, chan, n, cfg.seed)
    _render(tr, cid, result)
    return [result], None


def _replay_baseline(tr, cid, case, cfg):
    params, chan = _params(tr, cid, cfg.horizon, cfg.system, cfg.channel)
    result = _analytic(tr, cid, case.path, cfg.scheme, params, chan)
    with tr.span("baseline.build_H", cid, inside="baseline"):
        build_H(params)
    opts = cfg.baseline
    with tr.span("baseline.optimize", cid, restarts=opts["restarts"]) as span:
        best = alternating_optimize(params, chan, restarts=opts["restarts"],
                                    max_iters=opts["max_iters"], tol=opts["tol"],
                                    seed=cfg.seed, kind=cfg.scheme)
        span["converged"] = bool(best.converged)
    _render(tr, cid, result)
    return [result], best


_REPLAYS = {"analytic": _replay_analytic, "sweep": _replay_sweep,
            "simulate": _replay_simulate, "baseline": _replay_baseline}


def replay(tracer, case, config_path):
    """Replay one case under a root span.

    Returns (results, best): the scheme's result for each record the CLI
    writes (one per swept value for ``sweep``) and the optimizer's result
    for ``baseline`` (None otherwise).
    """
    with tracer.span(f"config:{case.label}", case.label, command=case.command):
        with tracer.span("cli.parse", case.label):
            cfg = cli.load_config(config_path)
        return _REPLAYS[case.command](tracer, case.label, case, cfg)
