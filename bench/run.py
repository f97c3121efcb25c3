"""chebprob benchmark: closed-loop passes over two workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload {library,cli,law,identity,montecarlo} \\
        --seed N --seconds S --trace {0,1} [--smoke]

``BENCHMARK.json`` lists ``library`` and ``cli``.  ``library`` runs three
parts, law, identity and montecarlo, one after the other in every pass; each
part can also be run alone as a workload of its own name.  Two workloads
with long runs, rather than five with short ones, because the host's speed
changes in phases of seconds to minutes: a long run is more likely to hold
quiet stretches in which every request gets a fast repetition.

One client sends requests back to back, one process at a time.  Every part
of a pass starts with the package freshly imported and never run, so its
memos (``eulerpoly``'s zero rows, ``stochastic``'s sampling tables, the
``chebyshev_T`` cache) start empty, as they do in every CLI run.  A run
makes at least three passes and adds more while the next would still end
within ``--seconds``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` -- median over the run's fresh interpreters of the time to
  import the modules the workload calls;
* ``wall_s`` -- one pass over the request list, each request timed as the
  best of its repetitions across passes;
* ``req_p50_ms``, ``req_tail_ms`` -- over those request times; the tail is
  the highest percentile with at least 10 requests beyond it;
* ``peak_rss_mb`` -- median over passes of the peak resident set of the
  largest process of the pass (a library part, or a cli command);
* ``checks_passed_frac`` -- output checks passed / attempted.  It stands in
  for the failed fraction, which the summary prints, because a bound taken
  as a share of the baseline needs a baseline that is not 0.

For ``library`` the summary also prints ``wall_s``, ``req_p50_ms`` and
``req_tail_ms`` of each part.

``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics listed in ``tracer.PER_LAYER``.  ``--smoke`` shrinks every
workload to a tiny size and runs one pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts requests; a request fails when it raises, exits non-zero, or fails a
non-statistical output check.  Standard-error bands and KS tests are
statistical checks: they fail at a known rate on correct output, so they
count only in the check fraction.  Everything a run measured, with the
machine, goes to ``.bench_out/`` in the checkout.

Library parts:

* law -- N = 2..20 at one table length through the three routes of the law
  (series, trig, catalan), ``cross_validate`` and ``tail_mass``.  Ballot sums
  dominate; eulerpoly, identities and stochastic are idle.
* identity -- the criterion-7 reconstruction grid, the expectation form, the
  two Euler routes and the Catalan prefix.  The same short law tables and
  zero rows are recomputed again and again.
* montecarlo -- sampling, the Klebanov random sum, the Euler representations
  and the moment quadrature.  numpy dominates; a few large law tables grow by
  rebuild-on-doubling.

And:

* cli -- the seven README commands, each in a fresh process that imports
  ``chebprob.cli`` (timed, for ``setup_s``) and calls its ``main``, as
  ``python -m chebprob.cli`` does.  Import and the cli layer dominate.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
CHILD = str(ROOT / "bench" / "child.py")
OUT = ROOT / ".bench_out"
LIBRARY_PARTS = ("law", "identity", "montecarlo")
WORKLOADS = ("library", "cli") + LIBRARY_PARTS
MIN_PASSES = 3
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10

README_COMMANDS = (
    ("probnums", "--N", "2", "--max-ell", "10", "--method", "all", "--format", "csv"),
    ("probnums", "--N", "7", "--max-ell", "60", "--method", "all"),
    ("identity", "--n", "1", "--N", "2", "--x", "1/4", "--tol", "1e-9"),
    ("identity", "--n", "6", "--N", "5", "--x", "-2/3", "--tol", "1e-9", "--format", "json"),
    ("montecarlo", "klebanov", "--N", "2", "--samples", "1000000", "--seed", "42"),
    ("montecarlo", "rep", "--n", "1", "--x", "0", "--samples", "100000", "--seed", "7"),
    ("montecarlo", "integral", "--k", "4"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass(frozen=True)
class Child:
    """One finished child process: output, exit code, wall time, peak RSS."""

    stdout: bytes
    stderr: str
    code: int
    wall_s: float
    rss_mb: float

    def record(self) -> dict:
        if self.code != 0:
            raise BenchError(f"child exited {self.code}: {self.stderr.strip()[-2000:]}")
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.pop("CHEBPROB_SEED", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.tag = f"{workload}-seed{seed}"
        self._serial = 0
        self._passes = 0

    def spawn(self, args: list, importtime: bool = False) -> Child:
        """Run one child to completion, alone; its peak RSS comes from the
        rusage that wait4 returns for it."""
        self._serial += 1
        stem = OUT / f"{self.tag}-{self._serial}"
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + args
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(int(remaining))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{stem}.out").read_bytes()
        stderr = Path(f"{stem}.err").read_text(errors="replace")
        for suffix in (".out", ".err"):
            Path(f"{stem}{suffix}").unlink()
        return Child(stdout, stderr, proc.returncode, wall_s, usage.ru_maxrss / 1024.0)

    # -- one pass -----------------------------------------------------------

    def library_pass(self, traced: bool) -> dict:
        """One pass of each library part the workload runs.  One fresh
        interpreter imports the package; each part runs in a process forked
        from it, so each starts with cold memos as it does when run alone."""
        parts = LIBRARY_PARTS if self.workload == "library" else (self.workload,)
        spans = str(OUT / f"{self.tag}-spans") if traced else "-"
        child = self.spawn([CHILD, "pass", str(self.seed), str(self._passes),
                            "1" if self.smoke else "0", spans, *parts], importtime=traced)
        self._passes += len(parts)
        got = child.record()
        record = {"latencies_s": [], "requests": 0, "requests_failed": 0,
                  "checks": 0, "checks_failed": 0, "failures": [], "rss_mb": 0.0,
                  "raws": [], "importtime": [], "setups_s": [got["setup_s"]], "parts": []}
        for part in got["parts"]:
            for key in ("latencies_s", "failures"):
                record[key] += part[key]
            for key in ("requests", "requests_failed", "checks", "checks_failed"):
                record[key] += part[key]
            record["rss_mb"] = max(record["rss_mb"], part["rss_mb"])
            record["parts"].append((part["part"], part["requests"]))
            if traced:
                record["raws"].append(part["layers"])
        if traced:
            record["importtime"].append(tracing.parse_importtime(child.stderr))
        record["wall_s"] = sum(record["latencies_s"])
        return record

    def cli_pass(self, traced: bool, outputs: dict) -> dict:
        """The README commands in a seed-shuffled order, one fresh process
        each.  ``outputs`` holds each command's first output in this run, so
        every later output is checked byte for byte against it."""
        commands = list(README_COMMANDS[:1] if self.smoke else README_COMMANDS)
        random.Random(self.seed).shuffle(commands)
        record = {"latencies_s": [], "requests": 0, "requests_failed": 0,
                  "checks": 0, "checks_failed": 0, "failures": [], "rss_mb": 0.0,
                  "output_bytes": 0, "raws": [], "importtime": [], "setups_s": [],
                  "parts": []}
        for number, command in enumerate(commands):
            path = OUT / f"{self.tag}-cli{number}.json"
            child = self.spawn([CHILD, "cli", str(path), "1" if traced else "0", *command],
                               importtime=traced)
            command_record = json.loads(path.read_text())
            if not traced:
                path.unlink()
            record["setups_s"].append(command_record["setup_s"])
            record["latencies_s"].append(child.wall_s)
            record["rss_mb"] = max(record["rss_mb"], child.rss_mb)
            record["output_bytes"] += len(child.stdout)
            name = " ".join(command)
            checks = [(f"{name}: exit 0", child.code == 0),
                      (f"{name}: output", len(child.stdout) > 0)]
            if "json" in command:
                checks.append((f"{name}: JSON schema", _json_schema_ok(child.stdout)))
            first = outputs.setdefault(command, child.stdout)
            checks.append((f"{name}: byte-identical output", child.stdout == first))
            bad = [label for label, ok in checks if not ok]
            record["requests"] += 1
            record["checks"] += len(checks)
            record["checks_failed"] += len(bad)
            record["failures"] += bad
            record["requests_failed"] += bool(bad)
            if traced:
                record["raws"].append(command_record["layers"])
                record["importtime"].append(tracing.parse_importtime(child.stderr))
        record["wall_s"] = sum(record["latencies_s"])
        return record

    def one_pass(self, traced: bool, outputs: dict) -> dict:
        if self.workload == "cli":
            return self.cli_pass(traced, outputs)
        return self.library_pass(traced)


def _json_schema_ok(stdout: bytes) -> bool:
    try:
        return json.loads(stdout).get("schema_version") == 1
    except ValueError:
        return False


def calibrate() -> float:
    """A fixed pure-Python loop, timed beside each pass to flag host drift.
    It is reported and never used to rescale anything."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def tail(latencies: list) -> tuple:
    """(value, percentile, count): the highest percentile of the sample that
    has at least TAIL_BEYOND requests beyond it.  A sample too small for
    that (smoke runs) reports its maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def machine() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = None
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else None
    except OSError:
        info["cpu"] = None
    return info


# -- the two kinds of run -----------------------------------------------------


def end_to_end(runner: Runner, seconds: float) -> tuple:
    """At least three passes, then more while the next would still end
    within ``seconds``.

    Host load on a shared machine comes in bursts, often shorter than a
    second, that only ever add time, so timings are best-of-k: each
    request's latency is the fastest of its k repetitions (one per pass,
    every one with cold memos).  ``wall_s`` is the pass made of those
    fastest repetitions; p50 and tail are taken across the requests.  The
    spread of best-of-k between runs falls steeply as k grows to about 5,
    so the passes are kept short enough for that many in a run.
    ``setup_s`` is the median of the timed imports of the run's fresh
    interpreters, one per pass (one per command on cli).
    """
    outputs: dict = {}
    passes, calib, costs = [], [], []
    while True:
        calib.append(calibrate())
        start = time.perf_counter()
        passes.append(runner.one_pass(False, outputs))
        costs.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - runner.started
        if runner.smoke or (len(passes) >= MIN_PASSES
                            and elapsed + statistics.median(costs) > seconds):
            break

    setups = [s for p in passes for s in p["setups_s"]]

    best = [min(reps) for reps in zip(*(p["latencies_s"] for p in passes))]
    tail_s, tail_pct, count = tail(best)
    parts, start = {}, 0
    for part, requests in passes[0]["parts"]:
        part_best = best[start:start + requests]
        start += requests
        parts[part] = {"wall_s": sum(part_best),
                       "req_p50_ms": 1000.0 * statistics.median(part_best),
                       "req_tail_ms": 1000.0 * tail(part_best)[0]}
    checks = sum(p["checks"] for p in passes)
    checks_failed = sum(p["checks_failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "req_p50_ms": (1000.0 * statistics.median(best), "ms"),
        "req_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "checks_passed_frac": (1.0 - checks_failed / checks, "fraction"),
    }
    notes = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "requests_per_pass": passes[0]["requests"],
        "latency_samples": count,
        "req_tail_percentile": tail_pct,
        "failed_frac": checks_failed / checks,
        "checks_failed": checks_failed,
        "checks": checks,
        "host.calib_s": statistics.median(calib),
        "calibs_s": calib,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "setups_s": setups,
        "parts": parts,
    }
    return passes, metrics, notes


def traced(runner: Runner, seconds: float) -> tuple:
    del seconds  # one untraced and one traced pass, whatever the budget
    outputs: dict = {}
    calib = [calibrate()]
    plain = runner.one_pass(False, outputs)
    calib.append(calibrate())
    traced_pass = runner.one_pass(True, outputs)

    raw = tracing.merge(traced_pass["raws"])
    imports = tracing.merge(traced_pass["importtime"])
    if runner.workload == "cli":
        cli = {"cli.process_s": traced_pass["wall_s"],
               "cli.import_s": imports["cli.import_s"],
               "cli.output_bytes": traced_pass["output_bytes"]}
    else:
        cli = {"cli.process_s": 0.0, "cli.import_s": 0.0, "cli.output_bytes": 0}
    layers = tracing.finalize(raw)
    layers.update(cli)
    layers["import.chebprob_s"] = imports["import.chebprob_s"]
    layers["import.numpy_scipy_s"] = imports["import.numpy_scipy_s"]
    layers["trace.overhead_frac"] = traced_pass["wall_s"] / plain["wall_s"] - 1.0
    layers["host.calib_s"] = statistics.median(calib)

    units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    missing = set(units) ^ set(layers)
    if missing:
        raise BenchError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    metrics = {name: (layers[name], units[name]) for name in units}
    passes = [plain, traced_pass]
    checks = sum(p["checks"] for p in passes)
    checks_failed = sum(p["checks_failed"] for p in passes)
    notes = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced_pass["wall_s"],
             "failed_frac": checks_failed / checks, "checks_failed": checks_failed,
             "checks": checks,
             "predictions": {name: why for name, _, _, why in tracing.PER_LAYER}}
    return passes, metrics, notes


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chebprob" / "__init__.py").is_file():
        print(f"error: no chebprob sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.smoke)
    try:
        kind = traced if args.trace else end_to_end
        passes, metrics, notes = kind(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["requests_failed"] for p in passes)
    failures = sorted({label for p in passes for label in p["failures"]})
    info = machine()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": info, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "check_failures": failures, "passes": passes}
    path = OUT / f"{runner.tag}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(f"chebprob benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}  python {info['python']}, numpy {info['numpy']}, "
          f"scipy {info['scipy']}, {info['nproc']} cpu, {info['cpu']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32s} {value:>14.6g} {unit}")
    if args.trace == 0:
        print(f"  passes {notes['passes']}, {notes['requests_per_pass']} requests each; "
              f"setup samples {notes['setup_samples']}; latency samples "
              f"{notes['latency_samples']}, tail at p{notes['req_tail_percentile']:.1f}; "
              f"host.calib_s {notes['host.calib_s']:.4f}")
        if len(notes["parts"]) > 1:
            for part, figures in notes["parts"].items():
                print(f"  part {part:<10s} " + "  ".join(
                    f"{name} {value:.6g}" for name, value in figures.items()))
    print(f"  failed_frac {notes['failed_frac']:.6g} "
          f"({notes['checks_failed']} of {notes['checks']} checks)")
    for label in failures:
        print(f"    failed check: {label}")
    print(f"  details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
