"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload in turn

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) with
its own empty ``REPRO_CACHE_DIR``; the warm workloads start from L2
streams built once per invocation.  Repetitions start while their
expected end stays within ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics as medians over the repetitions; ``--trace 1``
alternates traced and untraced repetitions and reports the per-layer
metrics of the traced ones (see ``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  ``--record-digests`` instead
rewrites ``reference_digests.json`` for the pinned seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text()) if (
    HERE.parent / "BENCHMARK.json").is_file() else None
DIGESTS = HERE / "reference_digests.json"

#: Trace length per app: half the canonical 720k, still well past the
#: ~200k needed to fill the 1 MB L2, so all six claim bands hold.
LENGTH = 360_000
WORKLOADS = ("grid-cold", "design-space", "reference-mix")
#: Seeds whose per-operation digests are committed (default + held-out).
PINNED_SEEDS = (0, 1)
#: Environment knobs that change what the program does or where it
#: caches; the benchmark refuses to run under any of them.
GUARDED_ENV = ("REPRO_FASTSIM", "REPRO_CACHE_DISABLE", "REPRO_TRACE")
#: Seconds after its start by which a workload's last repetition must end.
DEADLINE_S = 160
#: CPUs this process may run on (what ``nproc`` prints): the pool size.
NPROC = len(os.sched_getaffinity(0))
#: Workloads whose untraced repetitions fan out over a pool of NPROC
#: processes; their traced repetitions run in-process (jobs=1) so every
#: span lands in one process.
POOLED = ("grid-cold", "reference-mix")
END_TO_END_UNITS = {"wall_s": "s", "maccess_per_s": "M/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
#: Invariants of the traced run: (workload, metric) -> expected value.
TRACE_INVARIANTS = {
    ("grid-cold", "trace.calls"): 8,
    ("grid-cold", "streamcache.builds"): 8,
    ("design-space", "trace.calls"): 0,
    ("design-space", "streamcache.builds"): 0,
    ("reference-mix", "trace.calls"): 0,
    ("reference-mix", "streamcache.builds"): 0,
    ("design-space", "replay.fastsim_frac"): 1.0,
}
#: The paper's value beside each accuracy metric.
PAPER_VALUES = {"experiments.kernel_share_pct": ">40", "experiments.static_saving_pct": "~75",
                "experiments.dynamic_saving_pct": "~85",
                "experiments.static_perf_loss_pct": "~2",
                "experiments.dynamic_perf_loss_pct": "~3"}


def log(*parts) -> None:
    print(*parts, flush=True)


def guard_environment() -> list[str]:
    return [k for k in os.environ
            if k in GUARDED_ENV or k.startswith("REPRO_BENCH_")]


def manifest(root: Path) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"git_rev": rev, "python": platform.python_version(), "nproc": NPROC}


class Runner:
    """Starts repetitions as child interpreters inside one work dir."""

    def __init__(self, root: Path, work: Path, seed: int, deadline: float) -> None:
        self.root, self.work, self.seed, self.deadline = root, work, seed, deadline
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")

    def child(self, extra: list[str], cache_dir: Path,
              out: Path | None = None) -> tuple[dict | None, float, str]:
        """Run ``rep.py`` once; returns (record, spawn wall time, error)."""
        self.count += 1
        out = out or self.work / f"rep-{self.count}.json"
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        cmd = [sys.executable, str(HERE / "rep.py"), "--seed", str(self.seed),
               "--length", str(LENGTH), "--out", str(out), *extra]
        timeout = max(5.0, self.deadline - time.time())
        spawned = time.time()
        # Own process group, so a timed-out repetition goes down with its pool.
        proc = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except BaseException as exc:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return None, spawned, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            lines = stderr.strip().splitlines()
            return None, spawned, lines[-1] if lines else f"exit code {proc.returncode}"
        return json.loads(out.read_text()), spawned, ""

    def fresh_cache(self, streams: Path | None) -> Path:
        """An empty cache dir; warm workloads share the prebuilt streams."""
        cache = Path(tempfile.mkdtemp(dir=self.work, prefix="cache-"))
        if streams is not None:
            (cache / "streams").symlink_to(streams)
        return cache


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 spans_dir: Path, pinned: dict) -> dict:
    """Every repetition of one workload; returns the aggregate record.

    ``pinned`` holds the reference digests the outputs must equal.
    """
    start = time.time()
    work = Path(tempfile.mkdtemp(dir=spans_dir.parent, prefix=f"{workload}-"))
    runner = Runner(root, work, seed, deadline=start + DEADLINE_S)
    jobs = NPROC
    problems: list[str] = []
    try:
        streams, expect_file = None, None
        if workload != "grid-cold":
            prebuilt = Path(tempfile.mkdtemp(dir=work, prefix="prebuilt-"))
            expect_file = work / "expect.json"
            _, _, err = runner.child(["--prebuild", "--workload", workload, "--jobs", str(jobs)],
                                     prebuilt, expect_file)
            if err:
                raise RuntimeError(f"stream prebuild failed: {err}")
            streams = prebuilt / "streams"

        base = ["--workload", workload]
        if expect_file is not None:
            base += ["--expect", str(expect_file)]
        # Traced repetitions alternate with untraced ones of the same
        # shape (their difference is the tracing overhead).  On grid-cold
        # one pool repetition supplies the executor metrics.
        if trace:
            same = str(1 if workload in POOLED else jobs)
            cycle = [("traced", ["--jobs", same, "--traced"]), ("untraced", ["--jobs", same])]
            first = [("pool", ["--jobs", str(jobs)])] if workload == "grid-cold" else []
        else:
            cycle = [("untraced", ["--jobs", str(jobs)])] * 2
            first = []
        reps: list[tuple[str, dict, float]] = []
        failed_reps = 0
        durations: list[float] = []
        for i in itertools.count():
            label, extra = first[i] if i < len(first) else cycle[(i - len(first)) % len(cycle)]
            expected = max(durations, default=0.0)
            if i >= len(first + cycle) and time.time() - start + expected > seconds:
                break
            if i > 0 and time.time() + expected > runner.deadline:
                break
            if label == "traced":
                extra = extra + ["--spans", str(spans_dir / f"{workload}-seed{seed}-{i}.jsonl")]
            t = time.time()
            rec, spawned, err = runner.child(base + extra, runner.fresh_cache(streams))
            durations.append(time.time() - t)
            if rec is None:
                failed_reps += 1
                problems.append(f"{label} repetition failed: {err}")
                if failed_reps >= 2:
                    break
                continue
            rec["setup_s"] = rec["setup_end"] - spawned
            reps.append((label, rec, spawned))
        return aggregate(workload, seed, trace, reps, failed_reps, problems, pinned)
    except RuntimeError as exc:
        problems.append(str(exc))
        return aggregate(workload, seed, trace, [], 1, problems, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def aggregate(workload: str, seed: int, trace: bool, reps, failed_reps: int,
              problems: list[str], pinned: dict) -> dict:
    """Medians, output checks and the operation tally of one workload."""
    ops_per_rep = max((len(r["ops"]) for _, r, _ in reps), default=1)
    attempted = ops_per_rep * (len(reps) + failed_reps)
    failed_ops: set[tuple[int, str]] = set()

    # Every repetition must produce the same outputs; where a reference
    # exists for this seed and schema, they must also equal it.
    reference = None
    if reps:
        key = f"{workload}|seed={seed}|length={LENGTH}|schema={reps[0][1]['schema']}"
        reference = pinned.get(key)
        if reference is None:
            log(f"note: no reference digest for {key}; checking repeatability only")
    first = dict(reps[0][1]["ops"]) if reps else {}
    for n, (_, rec, _) in enumerate(reps):
        for label, value in rec["ops"]:
            expected = reference.get(label) if reference is not None else first.get(label)
            if value != expected:
                failed_ops.add((n, label))
        for name, ok in rec["checks"].items():
            if not ok:
                problems.append(f"check failed: {name}")
                failed_ops.update((n, label) for label, _ in rec["ops"])
    if reference is not None and reps and set(reference) != set(first):
        problems.append("operation labels differ from the reference digests")

    untraced = [r for label, r, _ in reps if label == "untraced"]
    traced = [r for label, r, _ in reps if label == "traced"]
    end_to_end = {}
    if untraced:
        end_to_end = {
            "wall_s": median(r["wall_s"] for r in untraced),
            "maccess_per_s": median(r["work_accesses"] / r["wall_s"] / 1e6 for r in untraced),
            "cpu_s": median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
            "setup_s": median(r["setup_s"] for r in untraced),
        }
    layers = {}
    if reps:
        results_layers = (traced or untraced or [reps[0][1]])[0]["layers"]
        layers = {k: median(r["layers"][k] for r in (traced or untraced) if k in r["layers"])
                  for k in results_layers}
        pool = [r for label, r, _ in reps if label == "pool"]
        for k in [k for k in layers if k.startswith("executor.")]:
            source = pool or untraced
            layers[k] = median(r["layers"][k] for r in source)
        if trace and traced and untraced:
            layers["tracing.overhead_s"] = (median(r["wall_s"] for r in traced)
                                            - median(r["wall_s"] for r in untraced))
        for r in traced:
            for layer in r["missing_layers"]:
                problems.append(f"traced run recorded no span for layer {layer!r}")
        if trace and traced:
            for (w, metric), value in TRACE_INVARIANTS.items():
                if w == workload and abs(layers.get(metric, -1) - value) > 1e-12:
                    problems.append(f"invariant {metric} = {layers.get(metric)} "
                                    f"(expected {value:g})")
    if workload == "grid-cold" and reps and layers.get("experiments.claims_passed") != 6:
        problems.append(f"claims passed {layers.get('experiments.claims_passed')}/6")
    versions = {k: reps[0][1][k] for k in ("schema", "numpy")} if reps else {}
    return {"workload": workload, "seed": seed, "trace": trace, "reps": len(reps),
            "versions": versions,
            "labels": [label for label, _, _ in reps], "attempted": attempted,
            "failed": len(failed_ops) + failed_reps * ops_per_rep, "problems": problems,
            "end_to_end": end_to_end,
            "layers": layers, "untraced": untraced}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def report(result: dict, trace: bool, env: dict) -> dict:
    """Print the workload's block; return its contract metrics."""
    w = result["workload"]
    log(f"== {w} seed={result['seed']} trace={int(trace)} "
        f"repetitions={result['reps']} ({', '.join(result['labels'])})")
    log("manifest", json.dumps({**env, **result["versions"]}))
    attempted, failed = result["attempted"], result["failed"]
    log(f"failed_frac {failed / attempted if attempted else 1.0:.4f} ratio ({failed}/{attempted})")
    if not trace:
        n = len(result["untraced"])
        for name, value in result["end_to_end"].items():
            log(f"{name:<14} {value:12.4f} {END_TO_END_UNITS[name]:<5} median of {n}")
        log("wall_s per repetition", " ".join(f"{r['wall_s']:.3f}" for r in result["untraced"]))
    if w == "grid-cold" and "experiments.claims_passed" in result["layers"]:
        log(f"claims_passed  {result['layers']['experiments.claims_passed']:.0f} of 6")
        for name, paper in PAPER_VALUES.items():
            log(f"  {name:<36} {result['layers'][name]:8.2f}   paper {paper}")
    if trace:
        for name, value in sorted(result["layers"].items()):
            log(f"  {name:<36} {value:14.6g}")
    for problem in dict.fromkeys(result["problems"]):
        log(f"PROBLEM: {problem}")
    units = {m["name"]: m["unit"] for m in SPEC.get(
        "per_layer" if trace else "end_to_end", [])}
    source = result["layers"] if trace else result["end_to_end"]
    return {name: {"value": float(source.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def record_digests(root: Path, spans_dir: Path) -> int:
    """Rewrite the reference digests from one repetition per pinned seed."""
    digests = load_digests()
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            result = run_workload(root, workload, seed, 0, False, spans_dir, {})
            if result["problems"] or not result["untraced"]:
                log(f"{workload} seed {seed}: {result['problems']}")
                return 1
            rec = result["untraced"][0]
            key = f"{workload}|seed={seed}|length={LENGTH}|schema={rec['schema']}"
            digests[key] = dict(rec["ops"])
            log(f"recorded {key}: {len(rec['ops'])} operations")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so running repetitions are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or SPEC is None:
        print("error: run from the repository root (src/repro and BENCHMARK.json needed)",
              file=sys.stderr)
        return 2
    guarded = guard_environment()
    if guarded:
        print(f"error: unset {', '.join(sorted(guarded))} before benchmarking: they change "
              "which engine or cache the program uses", file=sys.stderr)
        return 2
    spans_dir = root / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    if args.record_digests:
        return record_digests(root, spans_dir)

    env = manifest(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_workload(root, workload, args.seed, args.seconds, trace, spans_dir,
                              load_digests())
        block = report(result, trace, env)
        correct &= not result["problems"] and result["failed"] == 0 and result["reps"] > 0
        attempted += result["attempted"]
        failed += result["failed"]
        if len(workloads) == 1:
            metrics = block
        else:
            metrics.update({f"{workload}.{k}": v for k, v in block.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
