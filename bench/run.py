"""statecast benchmark: four CLI workloads, end to end or traced layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload analytic-long --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload's CLI calls (``statecast.cli.main``,
in-process, untraced) and reports the end-to-end metrics.  ``--trace 1``
alternates untraced CLI passes with a traced replay (``replay.py``) and
reports the per-layer metrics.  Every CLI output goes through the
correctness gate in ``checks.py``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
README.md for the workloads, the metrics and the run conditions.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the load comes from this single
# process, and a second BLAS thread doubled the run-to-run spread of certify.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"          # generated configs, CSV outputs and traces

MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mse_ratio": "ratio",
}

# work_per_s counts the workload's own unit of work
WORK_UNITS = {
    "analytic-long": ("analytic_steps_per_s", "steps/s"),
    "sweep-small": ("sweep_points_per_s", "points/s"),
    "monte-carlo": ("mc_sample_steps_per_s", "sample-steps/s"),
    "certify": ("restarts_per_s", "restarts/s"),
}

# per-layer metric -> (unit, span names summed per pass)
LAYER_SPANS = {
    "cli.parse_s": ("s", ("cli.parse",)),
    "cli.render_s": ("s", ("cli.render",)),
    "model.params_s": ("s", ("model.params",)),
    "model.state_variance_s": ("s", ("model.state_variance",)),
    "model.noise_s": ("s", ("model.noise",)),
    "model.plant_s": ("s", ("model.plant",)),
    "kalman.tx_schedule_s": ("s", ("kalman.tx_schedule",)),
    "kalman.coupled_schedule_s": ("s", ("kalman.coupled_schedule",)),
    "kalman.tx_filter_s": ("s", ("kalman.tx_filter",)),
    "kalman.coupled_filter_s": ("s", ("kalman.coupled_filter",)),
    "scheme.analytic_s": ("s", ("scheme.analytic",)),
    "scheme.sample_paths_s": ("s", ("scheme.sample_paths",)),
    "scheme.mc_s": ("s", ("scheme.mc",)),
    "baseline.build_H_s": ("s", ("baseline.build_H",)),
    "baseline.optimize_s": ("s", ("baseline.optimize",)),
}
CERTIFY_LABELS = ("T5", "T20", "T50", "noisy_T8")
PER_LAYER = {
    **{name: unit for name, (unit, _) in LAYER_SPANS.items()},
    "model.noise_bytes": "bytes",
    "scheme.self_s": "s",
    "scheme.peak_traced_mb": "MB",
    **{f"baseline.restart_s_{label}": "s" for label in CERTIFY_LABELS},
    **{f"baseline.objective_ratio_{label}": "ratio" for label in CERTIFY_LABELS},
    "baseline.converged": "count",
    "cli.csv_identical": "count",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "trace.glue_s": "s",
}
NOTES = {
    "model.noise_bytes": "computed from array shapes",
    "scheme.self_s": "estimated: scheme stage spans minus same-input model/kalman spans",
    "scheme.peak_traced_mb": "tracemalloc, first scheme call of each config, separate pass",
    "cli.csv_identical": "CSV outputs byte-identical to the seed-commit digest",
    "trace.overhead_s": "replay minus its same-input re-runs, minus CLI wall time",
    "trace.glue_s": "replay time outside every call span: span bookkeeping and glue",
}

# Reference kernel for the machine's current speed.  The nominal duration is
# about its median when run back to back on the 2-CPU machine the benchmark
# was built on, so normalised times read roughly as seconds on that machine.
KERNEL_NOMINAL_S = 0.0035
KERNEL_ARRAY = np.ones(1 << 20)
KERNEL_MATRIX = np.eye(30) + np.full((30, 30), 0.01)


def kernel_seconds():
    """Time of a fixed kernel with the program's three kinds of work: a
    pure-Python float loop and many tiny numpy calls (the schedule
    recursions), a pass over an 8 MB array (Monte Carlo) and small dense
    linear algebra (the certifier)."""
    t0 = time.perf_counter()
    x = 0.0
    for _ in range(25_000):
        x = x * 0.999 + 1.0
    row = KERNEL_MATRIX[3]
    for _ in range(150):
        np.sum(row * 2.0)
    KERNEL_ARRAY.sum()
    for _ in range(5):
        np.linalg.pinv(KERNEL_MATRIX, hermitian=True)
    return time.perf_counter() - t0


def normalised(measure):
    """Run ``measure()`` (which returns seconds) between two kernel runs and
    rescale it to the nominal kernel speed.

    The machine's speed drifts with load from outside (the same CLI call took
    0.7 s in one hour and 1.2 s in the next, and so did the kernel), so every
    timing is divided by the kernel time around it and multiplied by the
    kernel's nominal time.
    """
    before = kernel_seconds()
    seconds = measure()
    after = kernel_seconds()
    return seconds * KERNEL_NOMINAL_S / (0.5 * (before + after)), seconds


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import statecast
from statecast.cli import load_config
for path in sys.argv[2:]:
    load_config(path)
print(time.perf_counter() - t0)
"""

# One pass of CLI calls in a fresh interpreter that runs nothing else, for
# the workload's peak RSS.  ru_maxrss is not used for it: on Linux it carries
# the peak of the parent's memory across fork and exec, while VmHWM starts
# afresh with the new program.
PASS_CODE = """\
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from statecast import cli
codes = []
for command, config, out in zip(*[iter(sys.argv[2:])] * 3):
    try:
        codes.append(cli.main([command, "--config", config, "--out", out]))
    except Exception as exc:
        codes.append(f"exception {type(exc).__name__}: {exc}")
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    pass
print(json.dumps({"codes": codes, "peak_kb": peak_kb}))
"""


def import_program():
    """Import statecast from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import statecast
    except ImportError as exc:
        sys.exit(f"bench: cannot import statecast from {SRC}: {exc}")
    if Path(statecast.__file__).resolve().parent != SRC / "statecast":
        sys.exit(f"bench: statecast was imported from {statecast.__file__}, not {SRC}")


@dataclass
class Output:
    """One checked CLI call."""

    case: workloads.Case
    path: Path          # its config file
    wall: float         # wall seconds of the call
    norm: float         # the same, rescaled to the nominal kernel speed
    text: str           # CSV output ("" when the call failed)
    footer: dict
    ok: bool            # passed every check


class Run:
    """Configs, outputs and error counts of one benchmark run."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.references = {}
        self.cases = workloads.generate(workload, seed)
        self.paths = [workdir / f"{case.label}.json" for case in self.cases]
        for case, path in zip(self.cases, self.paths):
            path.write_bytes(case.json_bytes())
        self.checked = {}    # config path -> digest of its checked output

    def reference(self, case):
        if case.label not in self.references:
            self.references[case.label] = checks.reference_for(case)
        return self.references[case.label]

    def call(self, case, path):
        """One in-process CLI call; returns (exit code, wall, normalised wall, CSV text)."""
        out = path.with_suffix(".csv")
        code = None

        def invoke():
            nonlocal code
            t0 = time.perf_counter()
            try:
                code = cli.main([case.command, "--config", str(path), "--out", str(out)])
            except Exception as exc:   # a crash is a failed call, not a failed run
                code = f"exception {type(exc).__name__}: {exc}"
            return time.perf_counter() - t0

        norm, wall = normalised(invoke)
        text = out.read_text(encoding="ascii") if code == 0 else ""
        return code, wall, norm, text

    def record(self, case, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{case.label}: {problems[0]}")

    def cli_pass(self):
        """Run and check one pass over the cases; returns a list of Output.

        A repeated call must reproduce the checked output byte for byte;
        only the first output of each config goes through the full checks.
        """
        out = []
        for case, path in zip(self.cases, self.paths):
            code, wall, norm, text = self.call(case, path)
            if path in self.checked and code == 0:
                problems = [] if digest(text) == self.checked[path] else [
                    "output differs from an earlier call with the same config"]
                footer = checks.parse_footer(text)
            else:
                problems, footer = checks.check_output(case, code, text, self.reference(case))
                if not problems:
                    self.checked[path] = digest(text)
            self.record(case, problems)
            out.append(Output(case, path, wall, norm, text, footer, not problems))
        return out

    def memory_pass(self):
        """One pass in a fresh interpreter that runs only the CLI calls.

        Returns (its peak RSS in MB, wall seconds).  Its outputs must repeat
        the checked outputs of this run byte for byte.
        """
        outs = [path.with_name(f"{path.stem}-fresh.csv") for path in self.paths]
        args = [arg for case, path, out in zip(self.cases, self.paths, outs)
                for arg in (case.command, str(path), str(out))]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PASS_CODE, str(SRC), *args],
                              capture_output=True, text=True, timeout=170)
        wall = time.perf_counter() - t0
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            for case in self.cases:
                self.record(case, [f"fresh interpreter exited {proc.returncode}:"
                                   f" {proc.stderr.strip()[-300:]}"])
            return math.nan, wall
        for case, path, out, code in zip(self.cases, self.paths, outs, report["codes"]):
            text = out.read_text(encoding="ascii") if code == 0 else ""
            self.record(case, [] if code == 0 and digest(text) == self.checked.get(path) else [
                f"fresh interpreter: exit code {code}, or output differs from the checked one"])
        return report["peak_kb"] / 1024, wall


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def csv_identical(run, outputs):
    table = json.loads((BENCH / "digests.json").read_text())[run.workload]
    if run.workload != "certify":   # certify's inputs do not depend on the seed
        table = table[str(run.seed % workloads.VARIANTS)]
    return sum(table.get(o.case.label) == digest(o.text) for o in outputs)


def measure_setup(paths):
    """Time for a fresh interpreter to import statecast and load the configs,
    normalised like the CLI calls."""
    def setup():
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])
    return normalised(setup)[0]


def geometric_mean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mse_ratio(case, text, footer, reference):
    """The MSE the subcommand reports for its method / closed-form MSE."""
    if case.command == "sweep":
        _, summary = checks.parse_sweep(text)
        return geometric_mean([avg / (sum(m) / len(m)) for (_, avg), (m, _) in zip(summary, reference)])
    analytic = float(footer["avg_mse_analytic"])
    if case.command == "simulate":
        return float(footer["avg_mse_empirical"]) / analytic
    if case.command == "baseline":
        return float(footer["baseline_objective"]) / analytic
    return analytic / (sum(reference[0]) / len(reference[0]))


def timed_run(run, seconds):
    """Pass 0 warms up and checks; timed passes follow until ``seconds`` of CLI time.

    The 2-CPU VM this was built on is shared, and its speed drifts: the
    same call took 0.7 s in one hour and 1.2 s in the next, with episodes of
    a few seconds at up to twice the time on top.  So each call is timed
    between two runs of a fixed kernel and rescaled to the kernel's nominal
    speed (``normalised``).  work_per_s is the work of the distinct calls
    over the sum of each call's median normalised time, taken over repeats
    spread across the run.  Set-up runs once after every pass, likewise
    normalised, and its median also spans the run.  Peak RSS comes from one
    extra pass in a fresh interpreter; its time counts towards ``seconds``.
    """
    first = run.cli_pass()
    identical = csv_identical(run, first)
    if run.workload == "certify":
        # the checks that need the optimizer's (G, F), from a direct call
        for o in first:
            results, best = safe_replay(run, replay.Tracer(), o.case, o.path)
            if o.ok and best is not None:
                problems = checks.check_certificate(o.case.config, best, o.footer)
                problems += checks.check_replay(checks.csv_columns(o.case, o.text), results)
                run.record(o.case, problems)
    peak_rss_mb, spent = run.memory_pass()

    repeats = {case.label: [] for case in run.cases}    # normalised call times
    setups = []
    measured = 0.0
    passes = 0
    while spent + measured < seconds or passes < MIN_PASSES:
        passes += 1
        for o in run.cli_pass():
            repeats[o.case.label].append(o.norm)
            measured += o.wall
        setups.append(measure_setup(run.paths))

    # outputs repeat pass 0 byte for byte, so its ratios hold for every pass
    per_case = {o.case.label: mse_ratio(o.case, o.text, o.footer, run.reference(o.case))
                for o in first if o.ok}
    work = sum(case.work() for case in run.cases)
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": work / sum(statistics.median(v) for v in repeats.values()),
        "peak_rss_mb": peak_rss_mb,
        "mse_ratio": geometric_mean(per_case.values()) if per_case else math.nan,
    }
    name, unit = WORK_UNITS[run.workload]
    notes = [
        f"{name} = {metrics['work_per_s']:.6g} {unit}  (work_per_s on this workload, at the"
        f" kernel's nominal speed: median of each call's {passes} repeats)",
        f"unnormalised: {work * passes / measured:.6g} {unit} over {measured:.1f} s of CLI calls",
        f"setup_s: median of {len(setups)} fresh interpreters, one after each pass",
        "peak_rss_mb: VmHWM of a fresh interpreter running one pass of the CLI calls",
        f"csv_identical = {identical} of {len(first)} pass-0 outputs match the seed-commit digests",
    ]
    notes += [f"mse_ratio[{label}] = {value:.10g}" for label, value in per_case.items()]
    return metrics, END_TO_END, notes


def safe_replay(run, tracer, case, path):
    """Replay one case; a crash counts as a failed call. Returns (text, optimizer result)."""
    try:
        return replay.replay(tracer, case, path)
    except Exception as exc:   # a crash is a failed check, not a failed run
        run.record(case, [f"replay raised {type(exc).__name__}: {exc}"])
        return None, None


def traced_run(run, seconds):
    """Untraced CLI pass, then traced replay of the same configs, repeated.

    Pass 0 warms caches and its spans are dropped.  Per-layer numbers are
    medians over the later passes of each pass's summed span time.
    """
    samples = {name: [] for name in PER_LAYER}
    spans_out = []
    identical = None
    columns = {}    # label -> the CLI's value columns; every pass repeats its bytes
    pass_index = 0
    deadline = time.perf_counter() + seconds
    while pass_index < 2 or time.perf_counter() < deadline:
        outputs = run.cli_pass()
        if identical is None:
            identical = csv_identical(run, outputs)
        keep = pass_index > 0
        pass_index += 1
        tracer = replay.Tracer()
        cli_wall = stage = traced = glue = 0.0
        for o in outputs:
            case, footer = o.case, o.footer
            start = len(tracer.spans)
            results, best = safe_replay(run, tracer, case, o.path)
            if results is not None and o.ok:
                if case.label not in columns:
                    columns[case.label] = checks.csv_columns(case, o.text)
                run.record(case, checks.check_replay(columns[case.label], results))
            spans = tracer.spans[start:]
            root = spans[0]
            children = [s for s in spans if s["parent"] == root["id"]]
            duration = root["end"] - root["start"]
            traced += duration - sum(s["end"] - s["start"] for s in children if s["inside"])
            glue += duration - sum(s["end"] - s["start"] for s in children)
            cli_wall += o.wall
            stage += sum(s["end"] - s["start"] for s in children if s["inside"] is None)
            if keep and best is not None and footer:
                opt = next(s for s in spans if s["name"] == "baseline.optimize")
                samples[f"baseline.restart_s_{case.label}"].append(
                    (opt["end"] - opt["start"]) / opt["restarts"])
                samples[f"baseline.objective_ratio_{case.label}"].append(
                    best.objective / float(footer["avg_mse_analytic"]))
        if not keep:
            continue
        spans = tracer.spans
        spans_out.extend(spans)
        for name, (_, names) in LAYER_SPANS.items():
            samples[name].append(sum(s["end"] - s["start"] for s in spans if s["name"] in names))
        scheme_stage = sum(s["end"] - s["start"] for s in spans
                           if s["inside"] is None and s["name"].startswith("scheme."))
        same_input = sum(s["end"] - s["start"] for s in spans if s["inside"] == "scheme"
                         and s["name"].startswith(("model.", "kalman.")))
        samples["scheme.self_s"].append(scheme_stage - same_input)
        samples["model.noise_bytes"].append(sum(s.get("bytes_computed", 0) for s in spans))
        samples["baseline.converged"].append(sum(bool(s.get("converged")) for s in spans))
        samples["trace.unaccounted_s"].append(cli_wall - stage)
        samples["trace.overhead_s"].append(traced - cli_wall)
        samples["trace.glue_s"].append(glue)

    # separate pass for traced memory, so tracemalloc's cost stays out of the spans
    tracer = replay.Tracer(memory=True)
    for case, path in zip(run.cases, run.paths):
        safe_replay(run, tracer, case, path)
    peak = max((s["peak_bytes"] for s in tracer.spans if "peak_bytes" in s), default=0)
    samples["scheme.peak_traced_mb"].append(peak / 2**20)
    samples["cli.csv_identical"].append(identical)

    trace_file = WORK / f"trace-{run.workload}-{run.seed}.json"
    trace_file.write_text(json.dumps({"workload": run.workload, "seed": run.seed,
                                      "spans": spans_out}))
    metrics = {name: (statistics.median(v) if v else 0.0) for name, v in samples.items()}
    notes = [f"{pass_index - 1} traced passes after one warm-up pass;"
             f" spans in {trace_file.relative_to(ROOT)}",
             "layers this workload does not reach read 0"]
    return metrics, PER_LAYER, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, workdir)
        measure = traced_run if args.trace else timed_run
        metrics, units, notes = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"  {name} = {metrics[name]:.10g} {unit}{note}")
    print(f"  error_rate = {run.failed / max(run.attempted, 1):g}"
          f"  (failed {run.failed} of {run.attempted} checked calls)")
    for note in notes:
        print(f"  {note}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric that could not be measured (every call failed) is null
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else None,
                           "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


import_program()
from statecast import cli  # noqa: E402
import checks  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
