"""Optimal linear transmission of a scalar plant state over a
power-constrained Gaussian channel: closed-form schemes, their recursive
filters, Monte Carlo validation, and a brute-force optimality check.
"""

from .baseline import (
    BaselineResult,
    CausalOperator,
    alternating_optimize,
    build_H,
)
from .kalman import (
    CoupledDecoderSchedule,
    GainSchedule,
    coupled_decoder_filter,
    coupled_decoder_schedule,
    power_scale,
    transmitter_filter,
    transmitter_gain_schedule,
)
from .model import (
    ChannelParams,
    RngSeed,
    SystemParams,
    draw_noise,
    mean_trajectory,
    paths_from_noise,
    state_variance,
)
from .scheme import (
    RunResult,
    SchemeKind,
    SchemeSamples,
    analytic_mse,
    monte_carlo_mse,
    mse_floor,
    sample_paths,
)

__all__ = [
    "BaselineResult",
    "CausalOperator",
    "ChannelParams",
    "CoupledDecoderSchedule",
    "ExperimentConfig",
    "GainSchedule",
    "RngSeed",
    "RunResult",
    "SchemeKind",
    "SchemeSamples",
    "SystemParams",
    "alternating_optimize",
    "analytic_mse",
    "build_H",
    "coupled_decoder_filter",
    "coupled_decoder_schedule",
    "draw_noise",
    "main",
    "mean_trajectory",
    "monte_carlo_mse",
    "mse_floor",
    "parse_config",
    "paths_from_noise",
    "power_scale",
    "sample_paths",
    "state_variance",
    "transmitter_filter",
    "transmitter_gain_schedule",
]


def __getattr__(name):  # the CLI loads on first use, so ``python -m statecast.cli`` runs it afresh
    if name not in ("ExperimentConfig", "main", "parse_config"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli
    return getattr(cli, name)
