"""Seeded end-to-end benchmark of ``stochrat analyze``.

Usage (from the repository root):

    python3 perfbench/run.py --workload {full_domain,pairwise_wide,panel_many}
                             --seed N --seconds S --trace {0,1}

A run measures ``gen.DATASETS`` (8) inputs of the workload, each one
dataset file generated from a seed derived from ``--seed`` (see
``gen.py``); the program sees only those files.  With ``--trace 0`` the run
repeats rounds until ``--seconds`` have passed, at least one per input.
Round k takes input k mod 8 and runs one
``python -m stochrat.cli analyze DATA --format json --out REPORT`` process
and one set-up process (a fresh interpreter that imports stochrat, parses
the file and builds every subject's choice function).  It reports
``analyze_cal_s``, ``setup_s`` and ``peak_rss_mib``, each as the mean over
inputs of the input's median over its rounds, so that one input's
seed-driven cost weighs an eighth.  The two times are CPU times at the
reference machine's speed: each round is pinned to one CPU, and a
calibration loop on that CPU measures its speed while the process runs
(see ``speed.py``).  Timed processes are started from a small launcher
process, so that their peak memory is their own (see ``spawn.py``).  With
``--trace 1`` the rounds run the analysis in process through ``layers.py``,
once untraced and once traced, and report every per-layer metric and the
tracing overhead the same way.

Every report is checked: the first one against the reference computations
(``check.py``), every later one for byte identity with it, each round under
another PYTHONHASHSEED.  One operation is one subject in one report.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from statistics import fmean, median

import gen
from check import check_report
from spawn import Launcher
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150

SETUP_CODE = (
    "import sys\n"
    "from stochrat.dataset import parse_dataset\n"
    "data = parse_dataset(sys.argv[1])\n"
    "for subject in data.subject_ids():\n"
    "    data.scf(subject)\n"
)
IMPORT_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import stochrat.cli\n"
    "print(time.perf_counter() - start)\n"
)


ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
# Every timed process is started by this small process (see spawn.py).
LAUNCHER: Launcher


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(
    argv: list[str], hash_seed: int, stdout: Path, cpu: int | None = None
) -> tuple[float, float, float, int]:
    """Run one process to its end through the launcher, pinned to ``cpu`` if
    given; return (wall s, CPU s, peak RSS MiB, exit code)."""
    reply = LAUNCHER.run(argv, child_env(hash_seed), ROOT, stdout, cpu, CHILD_TIMEOUT_S)
    return reply["wall"], reply["cpu_s"], reply["maxrss_kib"] / 1024, reply["exit"]


class Rounds:
    """Reports of one input: the first is checked, the rest must match it."""

    def __init__(self, data: Path, subjects: list[gen.Subject], seed: int) -> None:
        self.data = data
        self.subjects = subjects
        self.seed = seed
        self.first: bytes | None = None
        self.problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = False

    def add(self, exit_code: int, report: Path) -> None:
        self.attempted += len(self.subjects)
        body = report.read_bytes() if exit_code == 0 and report.is_file() else None
        if body is None:
            self.failed += len(self.subjects)
            return
        if self.first is None:
            self.first = body
            self.problems = check_report(json.loads(body), self.subjects, self.seed)
            self.wrong = any(self.problems.values())
        elif body != self.first:
            self.failed += len(self.subjects)
            self.wrong = True
            print("report bytes differ between rounds", file=sys.stderr)
            return
        self.failed += sum(1 for p in self.problems.values() if p)

    def report_problems(self) -> None:
        for name, problems in sorted(self.problems.items()):
            for problem in problems:
                print(f"check failed: {self.data.name}: {name}: {problem}", file=sys.stderr)


def mean_of_medians(per_input: list[list[float]]) -> float:
    """The run's figure: each input's median over its rounds, averaged."""
    return fmean(median(values) for values in per_input)


def measure_end_to_end(inputs: list[Rounds], work: Path, seconds: int) -> dict:
    times, setups, rss = ([[] for _ in inputs] for _ in range(3))
    walls, speeds = [], []
    speedometer = Speedometer(work)
    try:
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(inputs) or time.perf_counter() < deadline:
            # Round k runs input k mod gen.DATASETS on one CPU, taken in
            # turn, beside the loop that measures that CPU's speed.
            j = k % len(inputs)
            rounds = inputs[j]
            cpu = ALLOWED_CPUS[k % len(ALLOWED_CPUS)]
            speedometer.follow(cpu)
            analyze = [sys.executable, "-m", "stochrat.cli", "analyze", str(rounds.data)]
            report = work / f"report{k}.json"
            log = work / "analyze.log"
            argv = analyze + ["--format", "json", "--out", str(report)]
            before = speedometer.reading()
            wall, cpu_s, peak, code = run_child(argv, k + 1, log, cpu)
            between = speedometer.reading()
            if code != 0:
                print(f"analyze exited with {code}:\n{log.read_text()[-2000:]}", file=sys.stderr)
            rounds.add(code, report)
            report.unlink(missing_ok=True)
            speeds.append(speedometer.speed(before, between))
            times[j].append(cpu_s * speeds[-1])
            walls.append(wall)
            rss[j].append(peak)
            setup = [sys.executable, "-c", SETUP_CODE, str(rounds.data)]
            before = speedometer.reading()
            _, cpu_s, _, code = run_child(setup, k + 1, work / "setup.log", cpu)
            after = speedometer.reading()
            if code != 0:
                raise RuntimeError(f"set-up process failed:\n{(work / 'setup.log').read_text()}")
            setups[j].append(cpu_s * speedometer.speed(before, after))
            k += 1
    finally:
        speedometer.close()
    print(
        f"{k} rounds; medians: analyze wall time {median(walls):.4f} s,"
        f" CPU speed {median(speeds):.4f} of the reference;"
        f" analyze_cal_s per input {[round(median(t), 4) for t in times]}",
        file=sys.stderr,
    )
    return {
        "analyze_cal_s": {"value": mean_of_medians(times), "unit": "s"},
        "setup_s": {"value": mean_of_medians(setups), "unit": "s"},
        "peak_rss_mib": {"value": mean_of_medians(rss), "unit": "MiB"},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def measure_layers(inputs: list[Rounds], work: Path, seconds: int, tag: str) -> dict:
    layers = str(Path(__file__).resolve().parent / "layers.py")
    imports = []
    for k in range(5):
        *_, code = run_child([sys.executable, "-c", IMPORT_CODE], k + 1, work / "import.log")
        if code != 0:
            raise RuntimeError((work / "import.log").read_text())
        imports.append(float((work / "import.log").read_text()))
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    plain, traced = [[] for _ in inputs], [[] for _ in inputs]
    samples: dict[str, list[list[float]]] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(inputs) or time.perf_counter() < deadline:
        j = k % len(inputs)
        rounds = inputs[j]
        spans = traces / f"{tag}-{j}.json"
        for offset, mode, totals in ((1, "plain", plain), (2, "traced", traced)):
            report = work / f"report-{mode}{k}.json"
            log = work / f"{mode}.log"
            argv = [sys.executable, layers, mode, str(rounds.data), str(report), str(spans)]
            *_, code = run_child(argv, 2 * k + offset, log)
            if code != 0:
                print(f"{mode} run exited with {code}:\n{log.read_text()[-2000:]}", file=sys.stderr)
            result = json.loads(log.read_text().splitlines()[-1]) if code == 0 else {"exit": code}
            rounds.add(result["exit"], report)
            report.unlink(missing_ok=True)
            if result["exit"] != 0:
                continue
            totals[j].append(result["total_s"])
            for name, value in result.get("metrics", {}).items():
                samples.setdefault(name, [[] for _ in inputs])[j].append(value)
        k += 1
    if not all(plain) or not all(traced):
        raise RuntimeError("some input has no completed traced round")
    metrics = {"cli.import_s": {"value": median(imports), "unit": "s"}}
    for name, values in samples.items():
        metrics[name] = {"value": mean_of_medians(values), "unit": unit_of(name)}
    overhead = mean_of_medians(traced) - mean_of_medians(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    print(f"{k} traced rounds; spans in {traces.relative_to(ROOT)}/{tag}-*.json", file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its child and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "stochrat" / "cli.py").is_file():
        print(f"error: no stochrat sources under {SRC}", file=sys.stderr)
        return 2

    global LAUNCHER
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    LAUNCHER = Launcher()
    try:
        inputs = []
        for j, seed in enumerate(gen.dataset_seeds(args.seed)):
            subjects = gen.generate(args.workload, seed)
            data = work / f"{args.workload}-{j}.csv"
            gen.write_csv(subjects, data)
            inputs.append(Rounds(data, subjects, seed))
        run_child([sys.executable, "-c", "import stochrat.cli"], 1, work / "warmup.log")
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            metrics = measure_layers(inputs, work, args.seconds, tag)
        else:
            metrics = measure_end_to_end(inputs, work, args.seconds)
    finally:
        LAUNCHER.close()
        shutil.rmtree(work, ignore_errors=True)
    for rounds in inputs:
        rounds.report_problems()
    result = {
        "correct": not any(rounds.wrong for rounds in inputs),
        "attempted": sum(rounds.attempted for rounds in inputs),
        "failed": sum(rounds.failed for rounds in inputs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
