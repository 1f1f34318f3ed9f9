"""The repository benchmark: campaign cost end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 2005 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table
    python3 perfbench/run.py --workload wide --trace 1   # per-layer breakdown

``--trace 0`` runs untraced campaigns back to back for ``--seconds`` (and
at least the workload's minimum count), each in its own forked process.
For each end-to-end metric it takes the median over the campaigns on one
seed and reports the mean of those medians over the run's seeds (only
``paper`` uses more than one).  ``--trace 1`` runs traced cycles instead:
an untraced campaign, a campaign with span wrappers and ``gc.callbacks``,
and a profiled campaign (cProfile plus counting wrappers, telemetry at
``metrics`` level); it reports per-layer medians and the tracing
overhead.  ``workloads.py`` defines and motivates the workloads,
``metrics.py`` derives the metrics ``BENCHMARK.json`` names, ``probes.py``
does the tracing.

A run simulates the recorded input seed ``workloads.input_seed`` maps
``--seed`` to, so every campaign's output is checked against a recorded
one: its summary digest, event count and record count must equal what
``reference.json`` records for its seed (``wide``'s entry for
``sharded``: the shard-equivalence oracle).  Traced runs also compare
the benchmark's event and bus counts with the program's own counters.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full record, with provenance.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Scratch space inside the checkout (shard caches, worker flush files).
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: ``setup_s`` samples per run at least.  Set-up-only processes make up
#: the difference on the monolithic workloads and give all of
#: ``sharded``'s samples.
MIN_SETUPS = 4
#: A run stops starting work this long after it began, so it always
#: ends well inside the 180 s a run may take.
RUN_LIMIT_S = 160.0

perf_counter = time.perf_counter


class CampaignFailed(Exception):
    """A forked campaign raised, timed out or returned nothing."""


def in_child(timeout: float, fn: Callable[..., Any], *args: Any) -> Any:
    """Run ``fn(*args)`` in a forked process group; return its JSON result.

    The child leads its own process group, so a timeout kills it together
    with any worker it started.  The child's peak RSS and GC state die
    with it, so nothing leaks into the next measurement.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            try:
                payload = {"ok": True, "value": fn(*args)}
                code = 0
            except Exception:
                payload = {"ok": False, "error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode("utf-8"))
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child already did it (or already exited)
    chunks: List[bytes] = []
    deadline = perf_counter() + timeout
    timed_out = False
    try:
        while True:
            remaining = deadline - perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                timed_out = True
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        _kill_group(pid)
        raise
    finally:
        os.close(read_fd)
        if timed_out:
            _kill_group(pid)
        os.waitpid(pid, 0)
        _kill_group(pid)  # any worker the child left behind
    if timed_out:
        raise CampaignFailed(f"no result within {timeout:.0f} s")
    try:
        payload = json.loads(b"".join(chunks).decode("utf-8"))
    except ValueError:
        raise CampaignFailed("the campaign process died without a result") from None
    if not payload["ok"]:
        raise CampaignFailed(payload["error"])
    return payload["value"]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def measure_setup(workload_name: str, seed: int) -> float:
    """Wall time of ``Fleet(...)`` plus ``build()`` (set-up-only child).

    For ``sharded``, the sum over every planned range's fleet, built one
    after another.
    """
    import gc
    from dataclasses import replace

    from repro.phone.fleet import Fleet
    from workloads import WORKLOADS, shard_ranges

    workload = WORKLOADS[workload_name]
    config = workload.config(seed)
    fleet_configs = [config.fleet]
    if workload.sharded:
        fleet_configs = [
            replace(config.fleet, phone_range=phone_range)
            for phone_range in shard_ranges(config.fleet.phone_count)
        ]
    total = 0.0
    for fleet_config in fleet_configs:
        gc.collect()
        start = perf_counter()
        fleet = Fleet(fleet_config, seed=config.seed)
        fleet.build()
        total += perf_counter() - start
        del fleet
    return total


def _campaign(workload_name: str, seed: int, mode: str, workdir: str) -> Dict[str, Any]:
    from campaign import run_campaign
    from workloads import WORKLOADS

    return run_campaign(WORKLOADS[workload_name], seed, mode, workdir)


# -- correctness ----------------------------------------------------------------


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _identity(sample: Dict[str, Any]) -> Dict[str, Any]:
    return {key: sample[key] for key in ("digest", "events", "records")}


# -- one run --------------------------------------------------------------------


class Run:
    """Bookkeeping for one invocation on one workload."""

    def __init__(self, workload_name: str, seed: int, seconds: float, workdir: str) -> None:
        from workloads import WORKLOADS, input_seed

        self.workload_name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.seed = input_seed(seed)
        self.seconds = seconds
        self.workdir = workdir
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.reference = load_reference()["seeds"]
        # sharded simulates wide's fleet: its merged summary, events and
        # records must equal the monolithic ones.
        self.reference_name = "wide" if self.workload.sharded else workload_name
        self.checked_seeds: List[int] = []

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def child(self, fn: Callable[..., Any], *args: Any) -> Any:
        return in_child(max(5.0, RUN_LIMIT_S + 15.0 - self.elapsed()), fn, *args)

    def check(self, seed: int, sample: Dict[str, Any]) -> bool:
        """Whether a campaign's output equals the one recorded for its seed."""
        if seed not in self.checked_seeds:
            self.checked_seeds.append(seed)
        expected = self.reference.get(str(seed), {}).get(self.reference_name)
        if expected is None:
            self.failures.append(
                f"reference.json records no {self.reference_name} output for seed {seed}"
            )
            return False
        got = _identity(sample)
        if got == _identity(expected):
            return True
        self.failures.append(
            f"{self.workload_name} output on seed {seed} differs from the recorded "
            f"{self.reference_name} output: got {got}, expected {_identity(expected)}"
        )
        return False

    def campaign(self, seed: int, mode: str) -> Optional[Dict[str, Any]]:
        """One checked campaign; ``None`` (and a failure) when it broke."""
        self.attempted += 1
        try:
            sample = self.child(_campaign, self.workload_name, seed, mode, self.workdir)
        except CampaignFailed as exc:
            self.failed += 1
            self.failures.append(f"{mode} campaign on seed {seed} failed: {exc}")
            return None
        if not self.check(seed, sample):
            self.failed += 1
            return None
        return sample

    def room_for(self, durations: List[float], minimum: int) -> bool:
        """Whether another unit of work fits in the run's time."""
        if not durations:
            return True
        expected = statistics.median(durations)
        if self.elapsed() + expected > RUN_LIMIT_S:
            return False
        return len(durations) < minimum or self.elapsed() + expected <= self.seconds


def run_untraced(run: Run) -> Dict[str, Any]:
    from metrics import end_to_end

    samples: List[Dict[str, Any]] = []
    durations: List[float] = []
    while run.room_for(durations, run.workload.min_campaigns):
        began = perf_counter()
        sample = run.campaign(run.workload.campaign_seed(run.seed, len(durations)), "plain")
        durations.append(perf_counter() - began)
        if sample is None:
            break
        samples.append(sample)
    values: Dict[str, List[float]] = {}
    by_seed: Dict[int, Dict[str, List[float]]] = {}
    for sample in samples:
        for name, value in end_to_end(sample).items():
            values.setdefault(name, []).append(value)
            by_seed.setdefault(sample["seed"], {}).setdefault(name, []).append(value)
    # Repeats of one seed are measurements of one input: take their
    # median.  Distinct seeds are distinct inputs: average them.
    reported = {
        name: statistics.mean(statistics.median(seed_values[name]) for seed_values in by_seed.values())
        for name in values
    }
    if not samples:
        return {"values": values, "reported": reported, "samples": samples}
    values.setdefault("setup_s", [])
    setup_durations: List[float] = []
    while len(values["setup_s"]) < MIN_SETUPS and run.room_for(setup_durations, MIN_SETUPS):
        began = perf_counter()
        try:
            values["setup_s"].append(run.child(measure_setup, run.workload_name, run.seed))
        except CampaignFailed as exc:
            run.failures.append(f"set-up-only process failed: {exc}")
            break
        setup_durations.append(perf_counter() - began)
    # Set-up barely depends on the seed: the median of every sample.
    reported["setup_s"] = statistics.median(values["setup_s"])
    return {"values": values, "reported": reported, "samples": samples}


def run_traced(run: Run) -> Dict[str, Any]:
    from metrics import cross_check, per_layer

    values: Dict[str, List[float]] = {}
    cycles: List[Dict[str, Any]] = []
    durations: List[float] = []
    while run.room_for(durations, 1):
        began = perf_counter()
        cycle = {}
        for mode in ("plain", "spans", "profile"):
            sample = run.campaign(run.seed, mode)
            if sample is None:
                break
            cycle[mode] = sample
        durations.append(perf_counter() - began)
        if len(cycle) < 3:
            break
        errors = cross_check(cycle["profile"])
        if errors:
            run.failed += 1
            run.failures.extend(errors)
            break
        cycles.append(cycle)
        for name, value in per_layer(cycle["plain"], cycle["spans"], cycle["profile"]).items():
            values.setdefault(name, []).append(value)
    reported = {name: statistics.median(series) for name, series in values.items()}
    return {"values": values, "reported": reported, "samples": [c["plain"] for c in cycles]}


# -- reporting ------------------------------------------------------------------


def _tree_digest(top: str) -> str:
    """Content hash of every Python file under ``top``."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, top).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str) -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "source_sha256": _tree_digest(SRC),
        "benchmark_sha256": _tree_digest(os.path.dirname(os.path.abspath(__file__))),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
    }


def render_table(title: str, measured: Dict[str, Any], names: List[str]) -> str:
    from metrics import UNITS

    lines = [title, f"  {'metric':<30} {'unit':<6} {'value':>14} {'n':>3} {'min':>14} {'max':>14}"]
    for name in names:
        if name not in measured["reported"]:
            continue
        series = measured["values"][name]
        lines.append(
            f"  {name:<30} {UNITS[name]:<6} {measured['reported'][name]:>14.6g} "
            f"{len(series):>3} {min(series):>14.6g} {max(series):>14.6g}"
        )
    return "\n".join(lines)


def run_workload(
    workload_name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> Dict[str, Any]:
    from metrics import END_TO_END, EXTRA_UNITS, PER_LAYER

    run = Run(workload_name, seed, seconds, workdir)
    measured = (run_traced if trace else run_untraced)(run)
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    print(render_table(
        f"{workload_name} (--seed {seed}, input seed {run.seed}, "
        f"{'traced' if trace else 'untraced'}):",
        measured,
        names + (list(EXTRA_UNITS) if trace else []),
    ))
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<30} {'ratio':<6} {error_rate:>14.6g} {run.attempted:>3} "
          f"({run.failed} of {run.attempted} campaigns failed)")
    print(f"  outputs checked against the recorded {run.reference_name} outputs of seeds "
          + ", ".join(str(checked) for checked in run.checked_seeds))
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    samples = measured["samples"]
    if samples:
        print(samples[0]["headline"])
    metrics = {
        name: {"value": measured["reported"][name], "unit": unit}
        for name, unit in (PER_LAYER if trace else END_TO_END)
        if name in measured["reported"]
    }
    complete = len(metrics) == len(PER_LAYER if trace else END_TO_END)
    return {
        "workload": workload_name,
        "correct": run.failed == 0 and not run.failures and complete,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
        "values": measured["values"],
        "elapsed_s": run.elapsed(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("paper", "wide", "sharded", "all"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from metrics import SPEC
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT),
        "workloads": {},
    }
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    # Anything the program puts in a temporary directory stays in the checkout.
    tempfile.tempdir = workdir
    try:
        results = [
            run_workload(name, seed, seconds, bool(args.trace), workdir) for name in names
        ]
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"]["loadavg_after"] = list(os.getloadavg())
    for result in results:
        record["workloads"][result["workload"]] = {
            key: result[key] for key in ("correct", "attempted", "failed", "values", "elapsed_s")
        }
    print("record: " + json.dumps(record, sort_keys=True))
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): metric
            for r in results
            for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
