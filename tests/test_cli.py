import json
import math
import warnings

import numpy as np
import pytest

from statecast import ExperimentConfig, main, parse_config
from statecast.cli import ConfigError, NumericalError, render_record

BASE = {
    "horizon": 2,
    "system": {"a": 0.9},
    "channel": {"P": 1.0, "N": 2.0},
}

# Hand-derived two-step run (a=0.9, P=1, N=2, unit process noise):
# mse(1) = 1, Q(1) = 1*2/(1+2) = 2/3, mse(2) = 0.81*(2/3) + 1 = 1.54.
GOLDEN = (
    "t,mse_analytic,mse_empirical,stderr,power_used\n"
    "1,1,,,1\n"
    "2,1.54,,,1\n"
    "# avg_mse_analytic = 1.27\n"
)


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _footer(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            out[key] = value
    return out


def test_analytic_golden_output(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    code, out, err = _run(capsys, ["analytic", "--config", cfg])
    assert code == 0
    assert out == GOLDEN
    assert err == ""


def test_out_file_matches_stdout_bytes(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    dest = tmp_path / "run.csv"
    code, out, _ = _run(capsys, ["analytic", "--config", cfg, "--out", str(dest)])
    assert code == 0
    assert out == ""
    raw = dest.read_bytes()
    assert raw == GOLDEN.encode("ascii")
    assert b"\r" not in raw and raw.endswith(b"\n")


def test_silent_sensor_matches_full_state_bytes(tmp_path, capsys):
    # with d = 0 the filtered scheme transmits the state itself, so the two
    # schemes must render identical tables
    system = {"a": 0.9, "b": 1.5, "c": 1.0, "d": 0.0,
              "V_ww": 1.0, "V_vv": 1.0, "V_wv": 0.0}
    full = dict(BASE, horizon=4, system=dict(system), scheme="FullState")
    noisy = dict(BASE, horizon=4, system=dict(system), scheme="NoisyState")
    _, out_full, _ = _run(capsys, ["analytic", "--config", _write(tmp_path, full, "f.json")])
    _, out_noisy, _ = _run(capsys, ["analytic", "--config", _write(tmp_path, noisy, "n.json")])
    assert out_full == out_noisy


def test_simulate_deterministic_per_seed(tmp_path, capsys):
    cfg = _write(tmp_path, dict(BASE, samples=300, seed=7))
    code, first, _ = _run(capsys, ["simulate", "--config", cfg])
    assert code == 0
    _, second, _ = _run(capsys, ["simulate", "--config", cfg])
    assert first == second
    _, other, _ = _run(capsys, ["simulate", "--config", cfg, "--seed", "8"])
    assert other != first
    footer = _footer(first)
    assert footer["samples"] == "300"
    # empirical columns are populated
    row = first.splitlines()[1].split(",")
    assert row[2] != "" and row[3] != ""
    assert abs(float(footer["avg_mse_empirical"]) - 1.27) < 0.2


def test_simulate_without_samples_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)  # samples defaults to 0
    code, out, err = _run(capsys, ["simulate", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_compare_without_samples_keeps_columns_empty(tmp_path, capsys):
    cfg = _write(tmp_path, dict(BASE, baseline={"restarts": 5}))
    code, out, _ = _run(capsys, ["compare", "--config", cfg])
    assert code == 0
    assert out.splitlines()[1].split(",")[2:4] == ["", ""]
    footer = _footer(out)
    assert footer["baseline_restarts"] == "5"
    assert footer["baseline_converged"] == "true"
    # at two steps the search reproduces the closed form
    assert abs(float(footer["baseline_gap_rel"])) < 1e-9


def test_baseline_subcommand_and_restart_override(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    code, out, _ = _run(capsys, ["baseline", "--config", cfg, "--restarts", "2"])
    assert code == 0
    footer = _footer(out)
    assert footer["baseline_restarts"] == "2"
    assert abs(float(footer["baseline_objective"]) - 1.27) < 1e-9


# `baseline` bytes for the certify benchmark's T5 and noisy_T8 inputs
# (a=0.9, P=1, N=0.5, seed 0, 20 restarts).  The search's arithmetic may
# change; its printed objective, gap and converged flag may not.
SEARCH = {"restarts": 20, "max_iters": 4000, "tol": 1e-11}
BASELINE_GOLDEN = {
    "T5": (
        {"horizon": 5, "system": {"a": 0.9}, "scheme": "FullState"},
        "t,mse_analytic,mse_empirical,stderr,power_used\n"
        "1,1,,,1\n"
        "2,1.27,,,1\n"
        "3,1.4280337931,,,1\n"
        "4,1.53597636769,,,1\n"
        "5,1.61444387188,,,1\n"
        "# avg_mse_analytic = 1.36969080654\n"
        "# baseline_objective = 1.33503053997\n"
        "# baseline_gap_rel = -0.0253051757363\n"
        "# baseline_restarts = 20\n"
        "# baseline_converged = true\n"
    ),
    "noisy_T8": (
        {"horizon": 8, "system": {"a": 0.9, "c": 1.0, "d": 0.5, "V_vv": 1.0},
         "scheme": "NoisyState"},
        "t,mse_analytic,mse_empirical,stderr,power_used\n"
        "1,1,,,1\n"
        "2,1.378,,,1\n"
        "3,1.55241074376,,,1\n"
        "4,1.66445379583,,,1\n"
        "5,1.74450313904,,,1\n"
        "6,1.80423983077,,,1\n"
        "7,1.84988386934,,,1\n"
        "8,1.88528672842,,,1\n"
        "# avg_mse_analytic = 1.60984726339\n"
        "# baseline_objective = 1.54294496957\n"
        "# baseline_gap_rel = -0.0415581622821\n"
        "# baseline_restarts = 20\n"
        "# baseline_converged = true\n"
    ),
}


@pytest.mark.parametrize("label", sorted(BASELINE_GOLDEN))
def test_baseline_golden_output(tmp_path, capsys, label):
    config, golden = BASELINE_GOLDEN[label]
    cfg = _write(tmp_path, dict(config, channel={"P": 1.0, "N": 0.5}, seed=0,
                                baseline=SEARCH))
    code, out, err = _run(capsys, ["baseline", "--config", cfg])
    assert code == 0
    assert out == golden
    assert err == ""


# `simulate` and `compare` bytes (samples >= 1, so both footers print, the
# Monte Carlo lines before the certifier's) for a coupled NoisyState plant
# with x0 != 0.
SAMPLED = {"horizon": 4,
           "system": {"a": 0.9, "c": 1.0, "d": 0.5, "V_vv": 1.0, "V_wv": 0.3, "x0": 0.7},
           "channel": {"P": 1.0, "N": 0.5}, "scheme": "NoisyState", "samples": 500,
           "seed": 3, "baseline": dict(SEARCH, restarts=3)}
SAMPLED_RECORD = (
    "t,mse_analytic,mse_empirical,stderr,power_used\n"
    "1,1,0.965604009105,0.0641538134738,1.00868450077\n"
    "2,1.22321496256,1.07278341443,0.0647415194944,0.909802334079\n"
    "3,1.39861452003,1.3301118316,0.0887647720401,0.962448251568\n"
    "4,1.51684516426,1.48028021111,0.0866719871815,0.948065345867\n"
    "# avg_mse_analytic = 1.28466866171\n"
    "# avg_mse_empirical = 1.21219486656\n"
    "# samples = 500\n"
)
# The same plant at T = 40 with 2 * 2048 + 5 samples: its draws cross the
# boundaries of Monte Carlo's chunks of steps and blocks of paths.
SAMPLED_LONG = dict(SAMPLED, horizon=40, samples=2 * 2048 + 5)
SAMPLED_LONG_RECORD = (
    "t,mse_analytic,mse_empirical,stderr,power_used\n"
    "1,1,0.994368359602,0.0218205388445,0.996832050864\n"
    "2,1.22321496256,1.22152898242,0.0266980341114,0.985569426831\n"
    "3,1.39861452003,1.36377563892,0.0313395455568,0.957083011883\n"
    "4,1.51684516426,1.51507849552,0.0334252669562,0.980263778334\n"
    "5,1.60154490187,1.64113948641,0.0360013029158,0.993420079873\n"
    "6,1.66457336212,1.67797642073,0.0364030445056,1.01389196732\n"
    "7,1.71259792651,1.73534977507,0.038079601346,1.02510695076\n"
    "8,1.74976754153,1.79911576079,0.0395992021851,1.01983420127\n"
    "9,1.77885105315,1.79929353254,0.040038011535,1.00567950251\n"
    "10,1.80178762706,1.81788310099,0.0396554457379,1.01604381484\n"
    "11,1.81998268152,1.77857957722,0.0397849570278,0.994039669223\n"
    "12,1.83448059934,1.80708060013,0.0408250774875,0.992757033846\n"
    "13,1.846072124,1.85675009781,0.042596836361,1.0108405605\n"
    "14,1.85536454369,1.9451259986,0.0432494671986,1.0111082677\n"
    "15,1.86282940801,1.86571883959,0.0416726072607,1.01066889682\n"
    "16,1.86883602074,1.92918919607,0.043438651629,1.03546775149\n"
    "17,1.87367556691,1.8566573338,0.0415203312943,1.01775369083\n"
    "18,1.87757886582,1.88220653426,0.0413051102825,1.01943164973\n"
    "19,1.88072966372,1.87712372909,0.0418869078358,1.01854863519\n"
    "20,1.88327473021,1.8794776888,0.0418168646988,0.994911034233\n"
    "21,1.88533161777,1.95290112537,0.0434810290279,1.01234487132\n"
    "22,1.88699468308,1.92304725108,0.0423143484835,1.01323697745\n"
    "23,1.88833979673,1.9135582897,0.0437235279486,1.01338803452\n"
    "24,1.88942805097,1.91986992981,0.0435308178761,1.00653186984\n"
    "25,1.89030869421,1.89816147067,0.042622375736,1.00484074516\n"
    "26,1.89102146351,1.89333139807,0.0408409146812,1.00144937697\n"
    "27,1.89159844529,1.95919573251,0.0424488204781,1.00935725592\n"
    "28,1.89206556377,1.86723163379,0.0400030820988,0.990364681156\n"
    "29,1.89244377458,1.91844534877,0.0428196218553,0.983879867806\n"
    "30,1.89275002363,1.85492991114,0.041187480607,0.980715067428\n"
    "31,1.89299801868,1.88907154291,0.0414674635597,1.00103112282\n"
    "32,1.89319885095,1.91323677537,0.0408229119833,0.995865849577\n"
    "33,1.89336149642,1.87648456274,0.0416359219779,0.991199901472\n"
    "34,1.89349322044,1.84481949432,0.0411546294174,0.980506866394\n"
    "35,1.89359990456,1.85102087579,0.0392990738934,0.974202544278\n"
    "36,1.89368631061,1.82751870502,0.0388845725054,0.974355220259\n"
    "37,1.89375629421,1.95053206874,0.044138027571,0.991697884743\n"
    "38,1.89381297744,1.83370955499,0.0400140598192,0.984950554253\n"
    "39,1.89385888857,1.90451432384,0.0409121606241,0.995077906503\n"
    "40,1.89389607509,1.92205823967,0.0416709713611,0.995393963259\n"
    "# avg_mse_analytic = 1.79716413534\n"
    "# avg_mse_empirical = 1.80392643457\n"
    "# samples = 4101\n"
)
SAMPLED_GOLDEN = {
    # label: (subcommand, config, stdout)
    "simulate": ("simulate", SAMPLED, SAMPLED_RECORD),
    "compare": ("compare", SAMPLED, SAMPLED_RECORD + (
        "# baseline_objective = 1.24649140922\n"
        "# baseline_gap_rel = -0.0297175868182\n"
        "# baseline_restarts = 3\n"
        "# baseline_converged = true\n"
    )),
    "simulate-long": ("simulate", SAMPLED_LONG, SAMPLED_LONG_RECORD),
    "compare-long": ("compare", SAMPLED_LONG, SAMPLED_LONG_RECORD + (
        "# baseline_objective = 1.53834171287\n"
        "# baseline_gap_rel = -0.144017130865\n"
        "# baseline_restarts = 3\n"
        "# baseline_converged = true\n"
    )),
}


@pytest.mark.parametrize("label", sorted(SAMPLED_GOLDEN))
def test_sampled_golden_output(tmp_path, capsys, label):
    command, config, golden = SAMPLED_GOLDEN[label]
    code, out, err = _run(capsys, [command, "--config", _write(tmp_path, config)])
    assert code == 0
    assert out == golden
    assert err == ""


def test_baseline_refuses_large_horizons(tmp_path, capsys):
    cfg = _write(tmp_path, dict(BASE, horizon=51))
    code, _, err = _run(capsys, ["baseline", "--config", cfg])
    assert code == 2
    assert "horizon" in err
    # the analytic run at the same horizon is fine
    code, out, _ = _run(capsys, ["analytic", "--config", cfg])
    assert code == 0
    assert len(out.splitlines()) == 53  # header + 51 rows + footer


def test_samples_override_enables_simulation(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    code, out, _ = _run(capsys, ["simulate", "--config", cfg, "--samples", "100"])
    assert code == 0
    assert _footer(out)["samples"] == "100"


def test_negative_overrides_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    assert _run(capsys, ["simulate", "--config", cfg, "--samples", "-1"])[0] == 2
    assert _run(capsys, ["analytic", "--config", cfg, "--seed", "-3"])[0] == 2
    assert _run(capsys, ["baseline", "--config", cfg, "--restarts", "0"])[0] == 2


@pytest.mark.parametrize("mangle, field", [
    (lambda d: d.pop("channel"), "channel"),
    (lambda d: d["channel"].pop("P"), "channel.P"),
    (lambda d: d["system"].pop("a"), "system.a"),
    (lambda d: d.update(horizon=0), "horizon"),
    (lambda d: d.update(scheme="Quantized"), "scheme"),
    (lambda d: d["system"].update(q=1.0), "system.q"),
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d["system"].update(a=[0.9, 0.9, 0.9]), "system.a"),
    (lambda d: d.update(baseline={"tol": 0.0}), "baseline.tol"),
    (lambda d: d.update(sweep={"field": "b", "values": [1]}), "sweep.field"),
    # json reads NaN and Infinity; they must not reach the numerics
    pytest.param(lambda d: d["channel"].update(P=math.nan), "channel.P",
                 id="nan-channel.P"),
    pytest.param(lambda d: d["system"].update(V_ww=math.nan), "system.V_ww",
                 id="nan-system.V_ww"),
    pytest.param(lambda d: d["channel"].update(N=math.inf), "channel.N",
                 id="inf-channel.N"),
    pytest.param(lambda d: d["system"].update(a=math.inf), "system.a",
                 id="inf-system.a"),
    pytest.param(lambda d: d["system"].update(a=[0.9, -math.inf]), "system.a",
                 id="inf-entry-system.a"),
    # array entries must be numbers: no bools, strings or nested arrays
    pytest.param(lambda d: d["system"].update(a=[0.9, True]), "system.a",
                 id="bool-entry-system.a"),
    pytest.param(lambda d: d["channel"].update(P=[1.0, "1"]), "channel.P",
                 id="str-entry-channel.P"),
    pytest.param(lambda d: d["channel"].update(N=[[2.0], 2.0]), "channel.N",
                 id="list-entry-channel.N"),
    # x0 is a scalar; an array of any length is a config error
    pytest.param(lambda d: d["system"].update(x0=[0.1, 0.2]), "system.x0",
                 id="list-system.x0"),
    # RngSeed takes 64-bit unsigned seeds, from the config or the command line
    # (a tuple of arguments); every subcommand refuses larger ones
    pytest.param(lambda d: d.update(seed=2**64), "seed", id="big-seed"),
    pytest.param(("--seed", str(2**64)), "seed", id="big-seed-override"),
])
def test_config_errors_name_the_field(tmp_path, capsys, mangle, field):
    data = json.loads(json.dumps(BASE))
    if isinstance(mangle, tuple):
        extra = list(mangle)
    else:
        extra = []
        mangle(data)
    cfg = _write(tmp_path, data)
    for command in ("analytic", "simulate", "baseline", "compare", "sweep"):
        code, out, err = _run(capsys, [command, "--config", cfg, *extra])
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {field}: ")


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "run.csv"
    code, out, err = _run(capsys, ["analytic", "--config", _write(tmp_path, BASE),
                                   "--out", str(dest)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert not dest.exists()


def test_unreadable_and_invalid_json_config(tmp_path, capsys):
    code, _, err = _run(capsys, ["analytic", "--config",
                                 str(tmp_path / "missing.json")])
    assert code == 2 and "config" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["analytic", "--config", str(bad)])
    assert code == 2 and "JSON" in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, {"horizon": 3, "system": {"a": 1e200},
                            "channel": {"P": 1.0, "N": 1.0}})
    with np.errstate(all="ignore"):  # overflow here is the point
        code, out, err = _run(capsys, ["analytic", "--config", cfg])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("command", ["analytic", "simulate", "sweep"])
def test_numerical_failure_reports_only_cli_lines(tmp_path, capsys, command):
    # the state variance overflows near t = 100; the CLI reports that through
    # its own lines and lets no numpy RuntimeWarning through
    cfg = _write(tmp_path, {"horizon": 200, "system": {"a": 1e3},
                            "channel": {"P": 1.0, "N": 1.0}, "samples": 10,
                            "sweep": {"field": "P", "values": [0.5, 1.0, 2.0]}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, [command, "--config", cfg])
    assert code == 3
    assert out == ""
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    lines = err.splitlines()
    assert all(line.startswith(("warning: ", "numerical failure: ")) for line in lines), err
    assert lines[-1].startswith("numerical failure: ")


def test_huge_variance_warns_but_completes(tmp_path, capsys):
    # a = 2 over 50 steps pushes the state variance past 1e12 while every
    # MSE entry stays finite (the decoder error is bounded by a^2 N + 1)
    cfg = _write(tmp_path, {"horizon": 50, "system": {"a": 2.0},
                            "channel": {"P": 1.0, "N": 1.0}})
    code, out, err = _run(capsys, ["analytic", "--config", cfg])
    assert code == 0
    assert "state variance exceeds" in err
    assert len(out.splitlines()) == 52


def test_sweep_power_and_noise_are_monotone(tmp_path, capsys):
    data = dict(BASE, horizon=3, sweep={"field": "P", "values": [0.5, 1.0, 2.0, 4.0]})
    code, out, err = _run(capsys, ["sweep", "--config", _write(tmp_path, data)])
    assert code == 0 and err == ""
    assert out.count("# sweep P = ") == 4
    summary = out.split("# sweep summary\n")[1].splitlines()
    assert summary[0] == "P,avg_mse_analytic"
    avgs = [float(line.split(",")[1]) for line in summary[1:]]
    assert all(b <= a for a, b in zip(avgs, avgs[1:]))  # more power helps

    data["sweep"] = {"field": "N", "values": [0.5, 1.0, 2.0]}
    _, out, _ = _run(capsys, ["sweep", "--config", _write(tmp_path, data, "n.json")])
    summary = out.split("# sweep summary\n")[1].splitlines()
    avgs = [float(line.split(",")[1]) for line in summary[1:]]
    assert all(b >= a for a, b in zip(avgs, avgs[1:]))  # more noise hurts


def test_sweep_unstable_a_warns_but_completes(tmp_path, capsys):
    data = dict(BASE, horizon=8, sweep={"field": "a", "values": [0.5, 1.0, 1.5]})
    code, out, err = _run(capsys, ["sweep", "--config", _write(tmp_path, data)])
    assert code == 0
    assert "|a| > 1" in err
    summary = out.split("# sweep summary\n")[1].splitlines()
    avgs = [float(line.split(",")[1]) for line in summary[1:]]
    assert all(np.isfinite(avgs)) and avgs == sorted(avgs)


# Coupled NoisyState with a silent step and a time-varying channel: a P
# sweep replaces the P array by each value and keeps the N array, and an N
# sweep the other way round.
SWEEP_BASE = {
    "horizon": 6,
    "system": {"a": 0.9, "b": [1.0, 0.0, 1.2, 1.0, 0.8, 1.0], "c": 1.1,
               "d": 0.5, "V_vv": 1.0, "V_wv": 0.3, "x0": 0.7},
    "channel": {"P": [0.5, 1.0, 1.5, 2.0, 1.0, 0.7], "N": [0.4, 0.5, 0.6, 0.3, 0.9, 1.1]},
    "scheme": "NoisyState",
}


@pytest.mark.parametrize("field,values", [
    ("P", [1e-3, 0.1, 1.0, 2.5, 1234567.0]),
    ("N", [1e-6, 0.3, 1.0, 40.0]),
    ("a", [-0.5, 0.9, 1.0, 1.3]),
])
def test_sweep_records_equal_analytic_runs(tmp_path, capsys, field, values):
    data = json.loads(json.dumps(SWEEP_BASE))
    data["sweep"] = {"field": field, "values": values}
    code, out, _ = _run(capsys, ["sweep", "--config", _write(tmp_path, data)])
    assert code == 0
    body, summary = out.split("# sweep summary\n")
    blocks = body.split(f"# sweep {field} = ")
    assert blocks[0] == "" and len(blocks) == len(values) + 1
    summary = summary.splitlines()
    assert summary[0] == f"{field},avg_mse_analytic" and len(summary) == len(values) + 1
    section = "system" if field == "a" else "channel"
    for i, (value, block, line) in enumerate(zip(values, blocks[1:], summary[1:])):
        printed, _, record = block.partition("\n")
        assert printed == f"{value:.12g}"
        single = json.loads(json.dumps(SWEEP_BASE))
        single[section][field] = value
        _, expected, _ = _run(capsys, ["analytic", "--config",
                                       _write(tmp_path, single, f"single{i}.json")])
        assert record == expected
        assert line == f"{printed},{_footer(record)['avg_mse_analytic']}"


def test_render_record_keeps_its_bytes():
    rows = [(1, np.float64(1.0), None, None, np.float64(0.5)),
            (2, np.float64(1 / 3), None, None, 2.0),
            (10, np.float64(2.5e-13), None, None, np.float64(123456789012.5))]
    footer = [("avg_mse_analytic", np.float64(2 / 3)), ("baseline_converged", True),
              ("baseline_converged", False), ("samples", 5)]
    assert render_record(rows, footer) == (
        "t,mse_analytic,mse_empirical,stderr,power_used\n"
        "1,1,,,0.5\n"
        "2,0.333333333333,,,2\n"
        "10,2.5e-13,,,123456789012\n"
        "# avg_mse_analytic = 0.666666666667\n"
        "# baseline_converged = true\n"
        "# baseline_converged = false\n"
        "# samples = 5\n")
    full = [(1, np.float64(1.0), np.float64(0.98), np.float64(0.0123456789012345), 1.0),
            (np.int64(2), 1e20, 3, np.float64(-0.0), 7)]
    assert render_record(full, []) == (
        "t,mse_analytic,mse_empirical,stderr,power_used\n"
        "1,1,0.98,0.0123456789012,1\n"
        "2,1e+20,3,-0,7\n")
    assert render_record([], [("x", 1.5)]) == (
        "t,mse_analytic,mse_empirical,stderr,power_used\n# x = 1.5\n")


@pytest.mark.parametrize("column", [1, 2, 3, 4, "footer"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_render_record_rejects_non_finite_values(column, bad):
    rows = [[1, 1.0, 0.9, 0.1, 1.0], [2, 1.5, 1.4, 0.1, 1.0]]
    footer = [("avg_mse_analytic", 1.25)]
    if column == "footer":
        footer.append(("avg_mse_empirical", bad))
    else:
        rows[1][column] = bad
    with pytest.raises(NumericalError):
        render_record(rows, footer)


def test_sweep_requires_sweep_section(tmp_path, capsys):
    code, _, err = _run(capsys, ["sweep", "--config", _write(tmp_path, BASE)])
    assert code == 2 and "sweep" in err


def test_config_round_trip_equality():
    data = dict(BASE, samples=10, seed=3, sweep={"field": "N", "values": [1, 2]})
    cfg = parse_config(data)
    assert isinstance(cfg, ExperimentConfig)
    assert parse_config(json.loads(json.dumps(data))) == cfg
    other = parse_config(dict(BASE, samples=10, seed=4))
    assert cfg != other


def test_parse_config_defaults():
    cfg = parse_config(dict(BASE))
    assert cfg.scheme.value == "FullState"
    assert cfg.samples == 0 and cfg.seed == 0
    assert cfg.baseline == {"restarts": 20, "max_iters": 4000, "tol": 1e-11}
    assert cfg.sweep is None
    with pytest.raises(ConfigError):
        parse_config([1, 2])
