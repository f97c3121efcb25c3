"""One fresh interpreter of the benchmark: a timed import, then one pass.

    python3 bench/child.py pass SEED FIRST_PASS_NO SMOKE SPANS_STEM PART...
    python3 bench/child.py cli RECORD_PATH TRACED ARG...

``pass`` imports the modules the PARTs call (timed: the set-up), then runs
one pass of each part in a process forked from this one after the import,
one at a time.  A forked process starts with the package exactly as a fresh
interpreter has it after the same import, memos empty, and the interpreter's
start and the import are paid once per pass instead of once per part.  The
parts get pass numbers FIRST_PASS_NO, FIRST_PASS_NO + 1, ... (the montecarlo
streams depend on them); SMOKE is 0 or 1; SPANS_STEM is ``-`` for an
untraced pass, otherwise each part is traced and its spans are written to
SPANS_STEM-PART.json.  It prints one JSON line: the set-up and one record
per part, with the part's peak resident set from ``wait4``.

``cli`` imports ``chebprob.cli`` (timed), runs one chebprob command through
its ``main``, as ``python -m chebprob.cli`` does, and writes the import time
to RECORD_PATH; its standard output and exit code are the command's own.
With TRACED 1 the command runs under the tracer and the record also holds
the per-layer figures and the spans.

chebprob must come from the checkout's ``src``, which the parent puts on
``PYTHONPATH``; anything else is refused.  Only ``sys``, ``os``, ``time`` and
``importlib`` are loaded before the timed import, so the set-up pays for
every module chebprob pulls in.
"""

import importlib
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def timed_import(parts) -> float:
    # The modules each part calls.  The table is kept here because
    # workloads.py loads fractions, dataclasses and random, which must not
    # be imported before the timed region.
    modules = {
        "law": ("chebprob.probnum",),
        "identity": ("chebprob.identities", "chebprob.eulerpoly"),
        "montecarlo": ("chebprob.stochastic",),
        "cli": ("chebprob.cli",),
    }
    start = time.perf_counter()
    for part in parts:
        for name in modules[part]:
            importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = sys.modules["chebprob"].__file__ or ""
    if not origin.startswith(SRC + os.sep):
        sys.exit(f"chebprob imported from {origin!r}, not from {SRC}")
    return elapsed


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "pass":
        seed, first, smoke, spans_stem = int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
        parts = argv[5:]
        setup_s = timed_import(parts)
        return run_pass(parts, seed, first, smoke, spans_stem, setup_s)
    if mode == "cli":
        setup_s = timed_import(["cli"])
        return run_cli(argv[1], argv[2] == "1", argv[3:], setup_s)
    sys.exit(f"unknown mode {mode!r}")


def run_pass(parts, seed, first, smoke, spans_stem, setup_s) -> int:
    import json
    import traceback

    records = []
    for number, part in enumerate(parts):
        spans_path = "-" if spans_stem == "-" else f"{spans_stem}-{part}.json"
        read_end, write_end = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            _die_with(parent)
            os.close(read_end)
            code = 1
            try:
                record = run_part(part, seed, first + number, smoke, spans_path)
                with os.fdopen(write_end, "w") as pipe:
                    json.dump(record, pipe)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            text = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"the {part} pass exited {os.waitstatus_to_exitcode(status)}")
        record = json.loads(text)
        record["rss_mb"] = usage.ru_maxrss / 1024.0
        records.append(record)
    print(json.dumps({"setup_s": setup_s, "parts": records}))
    return 0


def _die_with(parent: int) -> None:
    """Have the kernel kill this forked process when the pass process ends,
    so the runner, which kills the pass process on timeout, leaves nothing
    running."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    PR_SET_PDEATHSIG = 1
    if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0 or os.getppid() != parent:
        os._exit(1)


def run_part(part, seed, pass_no, smoke, spans_path) -> dict:
    import json

    import tracer as tracing
    import workloads

    requests = workloads.build(part, seed, pass_no, smoke)
    tracer = None
    if spans_path != "-":
        tracer = tracing.Tracer()
        tracer.install()
    result = workloads.run_pass(requests, tracer)
    record = {
        "part": part,
        "latencies_s": result.latencies_s,
        "requests": len(requests),
        "requests_failed": result.requests_failed,
        "checks": result.checks,
        "checks_failed": result.checks_failed,
        "failures": result.failures,
    }
    if tracer is not None:
        record["layers"] = tracer.raw(result.out_of_table_draws)
        with open(spans_path, "w") as handle:
            json.dump(tracer.span_dump(), handle)
    return record


def run_cli(record_path: str, traced: bool, args: list, setup_s: float) -> int:
    import json

    record = {"setup_s": setup_s}
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cli = sys.modules["chebprob.cli"]
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            record.update(layers=tracer.raw(), **tracer.span_dump())
        with open(record_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
