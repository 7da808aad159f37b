#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ with CMake into $CARGO_TARGET_DIR (default .bench_build)
under the repository root, clears every PERSEAS_* environment variable (each
one silently overrides the configuration under test), runs the benchmark binary, and
checks that it reported every metric BENCHMARK.json names, with its unit.
The human-readable report and a stamp line (source commit or digest, build
type and flags, compiler, nproc, seed, threads, effective configuration) go
to standard output first; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --workload all every workload runs in turn, each ending in its own
result line.  The exit code is 0 only when every output check held.  --selftest runs every
workload at tiny size, traced and untraced, and checks the metric names and
units against BENCHMARK.json and perfbench/predictions.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json is missing")
    with open(path) as f:
        return json.load(f)


def clean_env():
    """The environment minus every PERSEAS_* variable, and the names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERSEAS_")}
    return env, sorted(k for k in os.environ if k.startswith("PERSEAS_"))


def build(env):
    """Configures (once) and builds the benchmark binary; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources: src/ is missing next to perfbench/")
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(env, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not be git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def drive(binary, env, args):
    """Runs the benchmark binary; returns (report lines, its JSON document, exit code)."""
    try:
        done = subprocess.run([binary, *args], env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"benchmark binary printed no result (exit code {done.returncode})")
    return lines[:-1], doc, done.returncode


def missing_metrics(wanted, reported):
    """Metrics of `wanted` that `reported` lacks or reports with another unit."""
    errors = []
    for m in wanted:
        got = reported.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} not reported")
        elif got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
    return errors


def measure(spec, binary, env, cleared, a):
    trace = a.trace != "0"
    lines, doc, code = drive(binary, env, ["--workload", a.workload, "--seed", str(a.seed),
                                           "--seconds", str(a.seconds), "--trace",
                                           "1" if trace else "0"])
    for line in lines:
        print(line)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    reported = doc["per_layer"] if trace else doc["end_to_end"]
    errors = doc["failures"] + missing_metrics(wanted, reported)
    if code != 0 and not errors:
        errors.append(f"benchmark binary exited with code {code}")
    stamp = dict(doc["stamp"])
    stamp.update(workload=a.workload, commit=git_commit(), source_digest=source_digest(),
                 threads=doc["config"].get("threads", 1), cleared_env=cleared,
                 config=doc["config"],
                 samples={m["name"]: reported[m["name"]]["samples"]
                          for m in wanted if m["name"] in reported})
    if not stamp["optimised"]:
        print("perfbench: WARNING: the benchmark binary was not built optimised", file=sys.stderr)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {m["name"]: {"value": reported[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted if m["name"] in reported},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def selftest(spec, binary, env):
    """Every workload, tiny, traced and untraced: every metric named, with its unit."""
    errors = []
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    named = {n for names in predictions["named"].values() for n in names}
    layer = {m["name"] for m in spec["per_layer"]}
    predicted = set()
    for p in predictions["per_layer"]:
        names = ([p["metric"].replace("<phase>", ph) for ph in p["phases"]]
                 if "phases" in p else [p["metric"]])
        predicted.update(names)
        errors += [f"predictions.json: {n} is not a per_layer metric" for n in names
                   if n not in layer]
        errors += [f"predictions.json: {p['metric']} moves unknown {m['end_to_end']}"
                   for m in p["moves"] if m["end_to_end"] not in e2e | named]
    errors += [f"predictions.json: no prediction for {n}" for n in layer - predicted]
    errors += [f"predictions.json: {n} not described" for n in e2e - set(predictions["end_to_end"])]
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            _, doc, code = drive(binary, env, ["--workload", w["name"], "--seed", "1",
                                               "--seconds", "0.1", "--trace", trace, "--tiny"])
            wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            reported = doc["per_layer"] if trace == "1" else doc["end_to_end"]
            where = f"{w['name']} --trace {trace}"
            errors += [f"{where}: {e}" for e in doc["failures"] + missing_metrics(wanted, reported)]
            if code != 0:
                errors.append(f"{where}: benchmark binary exited with code {code}")
            if trace == "0":
                named = predictions["named"].get(w["name"], [])
                errors += [f"{where}: named metric {n} not reported"
                           for n in named if n not in doc["named"]]
            print(f"selftest: {where}: {len(reported)} metrics, exit {code}")
    for e in errors:
        print(f"selftest: {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 0 if not errors else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    spec = load_spec()
    env, cleared = clean_env()
    names = [w["name"] for w in spec["workloads"]]
    if not a.selftest:
        if a.workload not in names + ["all"]:
            fail(f"--workload must be one of {', '.join(names)} or all")
        if a.seconds is None:
            a.seconds = spec["run_seconds"]
    binary = build(env)
    sys.stdout.flush()
    if a.selftest:
        return selftest(spec, binary, env)
    if a.workload == "all":
        runs = [argparse.Namespace(**{**vars(a), "workload": n}) for n in names]
        return max(measure(spec, binary, env, cleared, one) for one in runs)
    return measure(spec, binary, env, cleared, a)


if __name__ == "__main__":
    sys.exit(main())
