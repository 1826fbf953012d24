"""Run one benchmark job in a fresh interpreter and record what happened.

    python bench/worker.py JOB_JSON RESULT_JSON SECONDS TRACE

The job (a list of CLI argument lists) is repeated until SECONDS have passed,
at least three times. Each command is one in-process call of
hyperbessel.cli.main(argv) writing with --out; the call alone is timed,
and the speed probe (speed.py) runs before each call and after the last.
Before every call the functools caches of the hyperbessel modules are
cleared, so each call pays what a fresh `hyperbessel` process pays. After
each call its output is fingerprinted, outside the timed region.

With TRACE=1 repetitions alternate between untraced and traced (with
tracing.py installed), so drift in machine speed during the run hits both
alike; the result then also holds the per-layer numbers of every traced
repetition, and the spans of the last one are written next to the result.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import speed


def _lru_caches():
    caches = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("hyperbessel"):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and value not in caches:
                caches.append(value)
    return caches


def _fingerprint(data: bytes) -> dict:
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run_rep(main, job, workdir, caches, tracer=None) -> list[dict]:
    records = []
    for i, entry in enumerate(job):
        before = speed.probe()
        out = os.path.join(workdir, f"cmd{i:02d}.out")
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        for cache in caches:
            cache.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{entry['kind']}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                with span:
                    rc = main(entry["argv"] + ["--out", out])
            except Exception as exc:  # an escaped exception is a failed command, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        text = stdout.getvalue().encode()
        records.append({"s": elapsed, "probe_s": before, "rc": rc,
                        "stderr": stderr.getvalue()[-2000:], "out": _fingerprint(data), "stdout": _fingerprint(text)})
    records[-1]["probe_end_s"] = speed.probe()
    return records


def main(argv):
    job_path, result_path, seconds, traced = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    from hyperbessel import cli
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    workdir = os.path.dirname(os.path.abspath(result_path))
    caches = _lru_caches()
    begin = time.perf_counter()
    reps, traced_reps, layers, missing, spans = [], [], [], [], []
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
    while len(reps) < 3 or time.perf_counter() - begin < seconds:
        reps.append(run_rep(cli.main, job, workdir, caches))
        if tracer is not None:
            missing = tracer.install()
            traced_reps.append(run_rep(cli.main, job, workdir, caches, tracer))
            tracer.uninstall()
            numbers, spans = tracer.collect()
            layers.append(numbers)
    if tracer is not None:
        tracing.write_spans(result_path.replace(".json", ".spans.csv.gz"), spans)
    result = {"reps": reps, "traced_reps": traced_reps,
              "layers": layers, "untraceable": missing,
              "hyperbessel_file": os.path.abspath(cli.__file__)}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
