"""hyperbessel benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The steps:

1. set-up: one warm-up import of hyperbessel.cli (it compiles bytecode), then
   SETUP_IMPORTS fresh interpreters that each time the import under
   `python -X importtime` and then run the speed probe; setup_s is the
   median import time in reference seconds;
2. the job for (workload, seed) from workloads.py runs in one fresh
   interpreter (worker.py), repeated for --seconds; wall_s is the median
   job time over the repetitions in reference seconds: each call's time
   scaled by the speed probe run around it (speed.py);
3. outside any timed region, every output is checked against references
   (checks.py) and fingerprinted (bytes and SHA-256).

With --trace 0 the run reports the end-to-end metrics, setup_s and wall_s,
which every workload has. With --trace 1 the worker alternates untraced and
traced (tracing.py) repetitions, and the run reports the per-layer metrics
instead: the per-command throughputs of the untraced repetitions (zero for
a command the workload does not run) and the traced layers.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Everything the run writes goes under bench/_work/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 7
# the probe after one import; one import lasts about as long as 100 kernels
SETUP_PROBE_REPEATS = 15
WORKER_TIMEOUT_S = 150


#: per-command throughputs, reported with the per-layer metrics
THROUGHPUTS = ("qbes_steps_per_s", "bes_steps_per_s", "bk_char_points_per_s",
               "lag_char_points_per_s", "density_points_per_s", "transform_points_per_s",
               "law_atoms_per_s", "checks_per_s")


def throughput_metric(entry) -> str:
    """The end-to-end throughput a command counts toward."""
    kind = entry["kind"]
    if kind == "char-eval":
        family = checks.options(entry["argv"])["family"]
        return "bk_char_points_per_s" if family == "bk" else "lag_char_points_per_s"
    return {"qbes-sim": "qbes_steps_per_s", "bes-sim": "bes_steps_per_s",
            "bes-density": "density_points_per_s", "hankel": "transform_points_per_s",
            "qbes-kernel": "law_atoms_per_s", "verify": "checks_per_s"}[kind]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERBESSEL_THREADS", None)  # measure the pool as users get it by default
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd[:3])}") from exc


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import hyperbessel.cli; "
                 "t = time.perf_counter() - t; import sys; sys.path.insert(0, {here!r}); "
                 "import speed; print(t, speed.probe({repeats}))").format(
                     here=HERE, repeats=SETUP_PROBE_REPEATS)


def measure_setup() -> dict:
    """Median import time of hyperbessel.cli over fresh interpreters, in
    reference seconds by the probe each interpreter runs after the import."""
    samples, raw, scipy_special, package = [], [], [], []
    for i in range(SETUP_IMPORTS + 1):
        proc = _run([sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE], 60)
        if proc.returncode != 0:
            raise BenchError(f"import hyperbessel.cli failed: {proc.stderr.strip()[-500:]}")
        if i == 0:
            continue  # warm-up: writes the bytecode caches
        seconds, probe_s = (float(v) for v in proc.stdout.split()[-2:])
        raw.append(seconds)
        samples.append(speed.scaled(seconds, probe_s, probe_s))
        cumulative = _importtime(proc.stderr)
        scipy_special.append(cumulative.get("scipy.special", 0) * 1e-6)
        package.append(cumulative.get("hyperbessel", 0) * 1e-6)
    return {"setup_s": statistics.median(samples), "samples": samples, "raw_samples": raw,
            "setup.import.scipy_special_s": statistics.median(scipy_special),
            "setup.import.hyperbessel_s": statistics.median(package)}


def _importtime(text: str) -> dict:
    """Cumulative microseconds per module from `python -X importtime` output."""
    out = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]))
    return out


def run_worker(job, workdir, seconds, trace) -> dict:
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path,
                 str(seconds), str(trace)], WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["hyperbessel_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"imported hyperbessel from {result['hyperbessel_file']}, "
                         "not from this checkout")
    for rep in result["reps"] + result["traced_reps"]:
        probes = [c["probe_s"] for c in rep] + [rep[-1]["probe_end_s"]]
        for i, c in enumerate(rep):
            c["ref_s"] = speed.scaled(c["s"], probes[i], probes[i + 1])
    return result


def _throughput(job, reps, verdicts, metric) -> float:
    """Units written per second of the commands that count toward metric.

    Pooled over all repetitions: each kind of command takes well under a
    second of a repetition, and the median of such short ratios spread
    nearly twice as much across runs as the pooled ratio.
    """
    idx = [i for i, e in enumerate(job) if throughput_metric(e) == metric]
    units = sum(verdicts[i].units for i in idx)
    return units * len(reps) / sum(rep[i]["ref_s"] for rep in reps for i in idx)


def end_to_end(reps, setup) -> dict:
    return {"setup_s": (setup["setup_s"], "s"),
            "wall_s": (statistics.median(sum(c["ref_s"] for c in rep) for rep in reps), "s")}


def per_layer(job, verdicts, result, setup) -> tuple[dict, list[str]]:
    layers, notes = result["layers"], []
    counts_differ = [k for k in layers[-1] if any(lay.get(k) != layers[-1][k] for lay in layers)
                     and not (k.endswith(".self_s") or k.endswith(".s"))]
    if counts_differ:
        notes.append(f"counts differ between traced repetitions: {sorted(counts_differ)}")
    traced_wall = statistics.median(sum(c["ref_s"] for c in rep) for rep in result["traced_reps"])
    plain_wall = statistics.median(sum(c["ref_s"] for c in rep) for rep in result["reps"])
    last = result["traced_reps"][-1]
    extra = {"cli.bytes_out": sum(c["out"]["bytes"] + c["stdout"]["bytes"] for c in last),
             "trace.overhead_s": traced_wall - plain_wall,
             "setup.import.scipy_special_s": setup["setup.import.scipy_special_s"],
             "setup.import.hyperbessel_s": setup["setup.import.hyperbessel_s"]}
    run_kinds = {throughput_metric(e) for e in job}
    metrics = {name: (_throughput(job, result["reps"], verdicts, name) if name in run_kinds
                      else 0.0, "1/s") for name in THROUGHPUTS}
    for name, unit in tracing.PER_LAYER:
        if name in extra:
            value = extra[name]
        elif unit == "s":
            value = statistics.median(lay.get(name, 0.0) for lay in layers)
        else:
            value = layers[-1].get(name, 0)
        metrics[name] = (value, unit)
    if result["untraceable"]:
        notes.append(f"not found, so not traced: {result['untraceable']}")
    return metrics, notes


def check_declared(metrics, trace):
    """Every reported metric is declared in BENCHMARK.json with the same unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong = [name for name, (_, unit) in metrics.items() if units.get(name) != unit]
    missing = sorted(set(units) - set(metrics))
    if wrong or missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {wrong + missing}")


def fingerprints(job, result) -> tuple[list[dict], list[int]]:
    """One fingerprint per command; a command whose bytes change between
    repetitions is not deterministic."""
    reps = result["reps"] + result["traced_reps"]
    table, unstable = [], []
    for i, entry in enumerate(job):
        seen = {(r[i]["out"]["sha256"], r[i]["stdout"]["sha256"]) for r in reps}
        if len(seen) != 1:
            unstable.append(i)
        c = reps[0][i]
        table.append({"cmd": i, "kind": entry["kind"], "rc": c["rc"],
                      "out_bytes": c["out"]["bytes"], "out_sha256": c["out"]["sha256"],
                      "stdout_bytes": c["stdout"]["bytes"],
                      "stdout_sha256": c["stdout"]["sha256"]})
    return table, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperbessel", "cli.py")):
        print(f"bench: no hyperbessel sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    started = time.perf_counter()
    try:
        setup = measure_setup()
        job = workloads.make_job(args.workload, args.seed)
        result = run_worker(job, workdir, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    reps = result["reps"]

    verdicts = []
    for i, entry in enumerate(job):
        last = reps[-1][i]
        try:
            with open(os.path.join(workdir, f"cmd{i:02d}.out"), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        verdicts.append(checks.check(entry, last["rc"], last["stderr"], data))
    table, unstable = fingerprints(job, result)
    for i in unstable:
        verdicts[i].failed = verdicts[i].attempted
        verdicts[i].known = 0
        verdicts[i].note = "output bytes differ between repetitions"
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    known = sum(v.known for v in verdicts)

    if args.trace:
        metrics, notes = per_layer(job, verdicts, result, setup)
    else:
        metrics, notes = end_to_end(reps, setup), []
    try:
        check_declared(metrics, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for row, verdict, entry in zip(table, verdicts, job):
        print(f"fingerprint cmd{row['cmd']:02d} {row['kind']:<11} rc={row['rc']} "
              f"out={row['out_bytes']}B sha256={row['out_sha256'][:16]} "
              f"stdout={row['stdout_bytes']}B sha256={row['stdout_sha256'][:16]} "
              f"failed={verdict.failed}/{verdict.attempted} {verdict.note}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"({known} in known defect classes, share {failed / attempted:.4f}); "
          f"{len(reps)} repetitions, {len(result['traced_reps'])} traced; "
          f"setup imports {[round(s, 4) for s in setup['raw_samples']]} s, "
          f"{[round(s, 4) for s in setup['samples']]} reference s; "
          f"job {statistics.median(sum(c['s'] for c in rep) for rep in reps):.4f} s median")
    for note in notes:
        print(f"note: {note}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "job": job, "fingerprints": table,
              "verdicts": [vars(v) for v in verdicts], "setup": setup,
              "rep_seconds": [[c["s"] for c in rep] for rep in reps],
              "rep_ref_seconds": [[c["ref_s"] for c in rep] for rep in reps],
              "probe_seconds": [[c["probe_s"] for c in rep] + [rep[-1]["probe_end_s"]]
                                for rep in reps],
              "traced_rep_seconds": [[c["s"] for c in rep] for rep in result["traced_reps"]],
              "metrics": {k: v[0] for k, v in metrics.items()},
              "elapsed_s": time.perf_counter() - started}
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
