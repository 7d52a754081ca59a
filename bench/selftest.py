"""Self-test of the benchmark itself (not of statecast).

    python3 bench/selftest.py

Checks that:

* the same seed generates byte-identical configs, and other variants differ;
* the reference recursion in checks.py agrees with the dense Gaussian
  oracle in tests/oracles.py on every generated config with T <= 50, and
  the dense objective scores the oracle's closed-form (G, F) pair at the
  oracle's average MSE;
* a perturbed reference value, a flipped exit code and a Monte Carlo
  z-score above 5 each count as a failed call in error_rate;
* the traced replay matches the CLI's columns of the same config, and the
  replay check fails when a replayed value moves by 1e-10 relative;
* the printout names every metric with its unit, and the last line is the
  result object;
* the benchmark calls no statecast name outside its stable import surface.

Exits non-zero on the first failure.  Takes about a minute.
"""

import ast
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import run  # noqa: F401  (puts this checkout's src/ on sys.path)
import checks
import replay
import workloads
from statecast import ChannelParams, SystemParams, cli

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402


def check_generation():
    for workload in workloads.WORKLOADS:
        for seed in (0, 5, 5 + workloads.VARIANTS):
            one = [c.json_bytes() for c in workloads.generate(workload, seed)]
            two = [c.json_bytes() for c in workloads.generate(workload, seed)]
            assert one == two, f"{workload}: seed {seed} generates different configs"
        if workload != "certify":    # certify's inputs are fixed on purpose
            other = [c.json_bytes() for c in workloads.generate(workload, 6)]
            assert other != one, f"{workload}: seeds 5 and 6 generate the same configs"


def _params(config):
    T = config["horizon"]
    system = dict(config["system"])
    if config["scheme"] == "FullState":
        system = {k: v for k, v in system.items() if k in ("a", "b", "V_ww")}
    return SystemParams.make(T, **system), ChannelParams.make(T, **config["channel"])


def _oracle(config):
    """Closed-form MSE, encoder G and decoder F from the dense oracle."""
    params, channel = _params(config)
    T = params.horizon
    xrows, _, Sigma, _ = oracles.plant_basis(params)
    if config["scheme"] == "FullState":
        source = xrows
        # G acts on x(1..T): z(t) = k_t x(t)
        G_of = lambda k: np.diag(k)  # noqa: E731
    else:
        coef, _, source = oracles.transmitter_reference(params)
        # G acts on gamma(0..T-1); z(T) never reaches the receiver
        G_of = lambda k: k[:, None] * coef[1:, :T]  # noqa: E731
    k, mse = oracles.decoder_reference(params, channel, source, Sigma)
    _, _, rows = oracles.decoder_estimate_rows(params, channel, source, Sigma)
    F = np.zeros((T, T))
    F[:, 1:] = rows[:, :T - 1]   # column j of F weights y(j); y(0) = 0
    return mse, G_of(k), F


def check_references_against_oracle():
    configs = []
    for seed in range(4):
        for workload in ("sweep-small", "certify"):
            for case in workloads.generate(workload, seed):
                cfg = dict(case.config)
                cfg.pop("sweep", None)
                configs.append(cfg)
                if case.command == "sweep":
                    for P in case.config["sweep"]["values"][::333]:
                        configs.append({**cfg, "channel": {**cfg["channel"], "P": P}})
    for cfg in configs:
        mse_oracle, G, F = _oracle(cfg)
        mse_ref, _ = checks.reference_mse(cfg)
        np.testing.assert_allclose(mse_ref, mse_oracle, rtol=1e-10, err_msg=str(cfg))
        objective, power = checks.dense_objective(cfg, G, F)
        np.testing.assert_allclose(objective, np.mean(mse_oracle), rtol=1e-10, err_msg=str(cfg))
        assert np.all(power <= np.array(checks.model_arrays(cfg)["P"]) * (1 + 1e-9))
    print(f"reference recursion and dense objective match the oracle on {len(configs)} configs")


def _cli_text(case, tmp):
    path = tmp / f"{case.label}.json"
    path.write_bytes(case.json_bytes())
    out = tmp / f"{case.label}.csv"
    assert cli.main([case.command, "--config", str(path), "--out", str(out)]) == 0
    return out.read_text()


def check_failures_are_counted(tmp):
    analytic = workloads.Case("small", "analytic", workloads.COUPLED, {
        "horizon": 30, "system": {"a": 0.9, "c": 1.0, "d": 0.5, "V_vv": 1.0, "V_wv": 0.3},
        "channel": {"P": 1.0, "N": 0.5}, "scheme": "NoisyState"})
    mc = workloads.Case("small_mc", "simulate", workloads.FULL, {
        "horizon": 10, "system": {"a": 0.9}, "channel": {"P": 1.0, "N": 0.5},
        "scheme": "FullState", "samples": 20000, "seed": 1})
    text, mc_text = _cli_text(analytic, tmp), _cli_text(mc, tmp)
    ref, mc_ref = checks.reference_for(analytic), checks.reference_for(mc)

    mse, power = ref
    perturbed = (mse[:12] + [mse[12] * (1 + 1e-8)] + mse[13:], power)
    # move one empirical value six standard errors away from the analytic one
    lines = mc_text.split("\n")
    t, analytic_mse, _, se, pw = lines[4].split(",")
    lines[4] = ",".join([t, analytic_mse, f"{float(analytic_mse) + 6 * float(se):.12g}", se, pw])

    r = run.Run("certify", 0, tmp)
    cases = [("clean analytic", analytic, 0, text, ref),
             ("clean simulate", mc, 0, mc_text, mc_ref),
             ("perturbed reference", analytic, 0, text, perturbed),
             ("flipped exit code", analytic, 3, text, ref),
             ("z-score above 5", mc, 0, "\n".join(lines), mc_ref)]
    for name, case, code, out, reference in cases:
        problems, _ = checks.check_output(case, code, out, reference)
        assert bool(problems) == name.startswith(("perturbed", "flipped", "z-score")), (name, problems)
        r.record(case, problems)
    assert (r.attempted, r.failed) == (5, 3), (r.attempted, r.failed)
    print("perturbed reference, flipped exit code and |z| > 5 each count as a failure")

    # replay consistency: the replay matches the CLI, and a change of a
    # replayed value by 1e-10 relative does not
    for case, out in ((analytic, text), (mc, mc_text)):
        results, _ = replay.replay(replay.Tracer(), case, tmp / f"{case.label}.json")
        columns = checks.csv_columns(case, out)
        assert checks.check_replay(columns, results) == [], case.label
        r = results[0]
        mse = np.array(r.mse_analytic, dtype=float)
        mse[7] *= 1 + 1e-10
        moved = SimpleNamespace(mse_analytic=mse, mse_empirical=r.mse_empirical,
                                stderr=r.stderr, power_used=r.power_used)
        assert checks.check_replay(columns, [moved]), case.label
    print("replay matches the CLI's columns; a replayed value moved by 1e-10 fails")


def check_printout():
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            assert any(re.match(rf"\s+{re.escape(name)} = \S+ {re.escape(unit)}\b", line)
                       for line in lines[:-1]), f"printout lacks {name} in {unit}"
        assert any("error_rate = 0" in line for line in lines[:-1])
    print("printout lists every metric with its unit; error_rate = 0")


# The only statecast names the benchmark may use: the stable surface, which
# the refactors of the ROADMAP keep, and the two noise roles draw_noise needs.
SURFACE = {
    "statecast": {"cli", "SystemParams", "ChannelParams", "RngSeed", "state_variance",
                  "draw_noise", "paths_from_noise", "transmitter_gain_schedule",
                  "transmitter_filter", "coupled_decoder_schedule", "coupled_decoder_filter",
                  "analytic_mse", "sample_paths", "monte_carlo_mse", "alternating_optimize",
                  "build_H"},
    "statecast.cli": {"load_config"},
    "statecast.model": {"ROLE_PROCESS", "ROLE_MEASUREMENT"},
}
ATTRIBUTES = {"statecast": {"__file__"}, "cli": {"main", "load_config", "render_record"},
              "SystemParams": {"make"}, "ChannelParams": {"make"}}


def check_import_surface():
    """Every statecast name the benchmark's files, and the code they run in
    fresh interpreters, import or look up is on the allow-list."""
    sources = {path.name: path.read_text() for path in sorted(run.BENCH.glob("*.py"))}
    sources.update({"run.SETUP_CODE": run.SETUP_CODE, "run.PASS_CODE": run.PASS_CODE})
    for name, source in sources.items():
        bound = set()     # local names that refer to statecast
        for node in ast.walk(ast.parse(source)):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("statecast"):
                        assert alias.name == "statecast" and not alias.asname, f"{where} imports {alias.name}"
                        bound.add("statecast")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("statecast"):
                for alias in node.names:
                    assert alias.name in SURFACE.get(node.module, ()), \
                        f"{where} imports {node.module}.{alias.name}"
                    assert not alias.asname, f"{where} renames {alias.name}"
                    bound.add(alias.name)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound):
                assert node.attr in ATTRIBUTES.get(node.value.id, ()), \
                    f"{where} uses {node.value.id}.{node.attr}"
    print("benchmark stays inside the stable import surface")


def main():
    import tempfile
    from pathlib import Path

    check_generation()
    print("same seed gives byte-identical configs")
    check_import_surface()
    check_references_against_oracle()
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        check_failures_are_counted(Path(tmp))
    check_printout()
    print("selftest passed")


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    main()
