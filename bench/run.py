"""Benchmark of the halfharm package: cold repetitions of one workload.

    python3 bench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (``bench/rep.py``), one caller in one process, so each pays the
cold cost of imports and memoized tables.  A repetition starts while the
middle of it is expected to fall within ``--seconds``, so a run measures
``--seconds`` on average; there is at least one.

With ``--trace 0`` the result holds the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and the result holds the per-layer metrics of the traced ones.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the environment and the raw samples.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REP = BENCH / "rep.py"

WORKLOADS = ("battery", "fields")
MAX_SEED = 2**32 - 1
MAX_SECONDS = 60
MAX_REPS = 20  # timed repetitions in one run, traced ones included
SETUP_SAMPLES = 5  # set-up times behind the reported setup_s median
HARD_LIMIT_S = 170.0  # the whole run, probes included, must end before this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HALFHARM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must be an integer in [0, {MAX_SEED}]")
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be an integer in [1, {MAX_SECONDS}]")
    return args


def child_env(environ, cpus: int) -> dict[str, str]:
    """The repetitions' environment: as found, with the checkout's src first
    on PYTHONPATH and any thread count above the CPU count lowered to it."""
    env = dict(environ)
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ""))
        except ValueError:
            continue
        if n > cpus:
            env[var] = str(cpus)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_loc(root: Path) -> dict[str, int]:
    """Lines of src/halfharm: all, and those that are neither blank nor comments."""
    total = code = 0
    for path in sorted((root / "src" / "halfharm").glob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#")
    return {"lines": total, "code_lines": code}


class Runner:
    """Starts repetitions and probes, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, env: dict[str, str]) -> None:
        self.workload = workload
        self.seed = seed
        self.env = env
        self.started = time.monotonic()

    def spawn(self, *flags: str) -> tuple[dict, float]:
        """Run rep.py once; return its result and its set-up time."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise BenchError("out of time before the run could finish")
        cmd = [sys.executable, str(REP), "--workload", self.workload, "--seed", str(self.seed), *flags]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded the {HARD_LIMIT_S:.0f} s run limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"repetition exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        return result, result["t_ready"] - t_spawn


def check_cold(reps: list[dict]) -> None:
    """Each timed repetition ran in its own process with no table memoized."""
    pids = [r["pid"] for r in reps]
    if len(set(pids)) != len(pids) or os.getpid() in pids:
        raise BenchError(f"timed repetitions shared a process: {pids}")
    for r in reps:
        if r["warm"]:
            raise BenchError(f"memoized tables were warm when timing started: {r['warm']}")


def measure(args: argparse.Namespace, runner: Runner) -> dict:
    describe, _ = runner.spawn("--setup-only")  # discarded; it also warms the file cache
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    durations: dict[bool, float] = {}
    t_start = time.monotonic()
    while len(plain) + len(traced) < MAX_REPS:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        have_minimum = plain and (traced or not args.trace)
        expected = durations.get(want_trace, max(durations.values(), default=0.0))
        if have_minimum and time.monotonic() - t_start + expected / 2 > args.seconds:
            break
        t0 = time.monotonic()
        result, setup = runner.spawn(*(["--trace"] if want_trace else []))
        durations[want_trace] = time.monotonic() - t0
        setups.append(setup)
        (traced if want_trace else plain).append(result)
    while len(setups) < SETUP_SAMPLES:
        _, setup = runner.spawn("--setup-only")
        setups.append(setup)
    check_cold(plain + traced)
    return {"describe": describe["describe"], "plain": plain, "traced": traced, "setups": setups}


def summarize(args: argparse.Namespace, m: dict) -> dict:
    """The result line; metric names and units come from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain, traced = m["plain"], m["traced"]
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    median = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        wanted = spec["per_layer"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = median("wall_s", traced) / median("wall_s", plain) - 1.0
        values["fail_frac"] = failed / attempted
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(m["setups"]),
            "wall_s": median("wall_s", plain),
            "cpu_s": median("cpu_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
        }
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }


def environment(env: dict[str, str], describe: dict) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **describe,
        "threads_found": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_passed": {var: env.get(var) for var in THREAD_VARS},
        "src_halfharm_loc": source_loc(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "halfharm" / "__init__.py").is_file():
        print(f"no halfharm sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1
    env = child_env(os.environ, os.cpu_count() or 1)
    try:
        m = measure(args, Runner(args.workload, args.seed, env))
        result = summarize(args, m)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    samples = {
        "reps": [{k: r[k] for k in ("pid", "wall_s", "cpu_s", "peak_rss_mb", "attempted", "failed")}
                 for r in m["plain"]],
        "traced_reps": [{k: r[k] for k in ("pid", "wall_s", "attempted", "failed", "trace_file",
                                           "counters")}
                        for r in m["traced"]],
        "setup_s": m["setups"],
        "failures": [f for r in m["plain"] + m["traced"] for f in r["failures"]][:20],
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": environment(env, m["describe"]), "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
