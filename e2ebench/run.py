#!/usr/bin/env python3
"""End-to-end training benchmark of PodNet.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (and the PodNet libraries it links) from source under
.bench_build/; later calls rebuild incrementally. The last line of standard
output is the result object of the run; see e2ebench/README.md for the
workloads and metrics. --seconds defaults to run_seconds of BENCHMARK.json.

--selftest runs every workload briefly in both modes and asserts that every
metric named in BENCHMARK.json is emitted with its unit, that the output
checks pass, and that the span trace of the traced run parses.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment without PODNET_* variables."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PODNET_")}


def source_id():
    """Identifies the code under test: the git commit when there is one,
    and always a hash of the library sources and build files."""
    digest = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    sid = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            sid = "git:" + git.stdout.strip() + " " + sid
    return sid


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "trainer.h")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"PodNet sources not found ({needed} is missing)")
    env = clean_env()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once; returns (exit code, stdout lines).

    The workload's untimed preparation runs first, in a process of its own,
    so that the measured process's peak memory covers only the timed calls.
    """
    scratch = os.path.join(ROOT, ".bench_build", "run", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--source-id", source_id()]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    stdout = ""
    code = 0
    for step in (cmd + ["--prepare"], cmd):
        try:
            proc = subprocess.run(step, capture_output=True, text=True,
                                  env=clean_env(), cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            shutil.rmtree(scratch, ignore_errors=True)
            die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        stdout += proc.stdout
        if echo:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
        code = proc.returncode
        if code != 0:
            break
    trace_file = os.path.join(scratch, "trace.jsonl")
    if os.path.isfile(trace_file):
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(trace_file, os.path.join(traces, f"{workload}-seed{seed}.jsonl"))
    shutil.rmtree(scratch, ignore_errors=True)
    return code, stdout.splitlines()


def check_trace(path):
    """Every span line parses, names a parent that exists, and lies inside
    its parent's interval. Returns the number of spans."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            for key in ("name", "rank", "step", "id", "parent", "start_us", "end_us"):
                if key not in s:
                    raise ValueError(f"span lacks {key}: {line}")
            if s["end_us"] < s["start_us"]:
                raise ValueError(f"span ends before it starts: {line}")
            spans[(s["rank"], s["id"])] = s
    for s in spans.values():
        if s["parent"] < 0:
            continue
        p = spans.get((s["rank"], s["parent"]))
        if p is None:
            raise ValueError(f"span {s} names a missing parent")
        if s["start_us"] < p["start_us"] or s["end_us"] > p["end_us"]:
            raise ValueError(f"span {s} lies outside its parent {p}")
        if s["step"] != p["step"]:
            raise ValueError(f"span {s} and its parent disagree on the step")
    if not spans:
        raise ValueError("trace holds no spans")
    return len(spans)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_once(name, 1, 1, trace, echo=False)
            if code != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{name} trace={trace}: output checks failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{name} trace={trace}: missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if trace == 1:
                path = os.path.join(ROOT, ".bench_build", "traces", f"{name}-seed1.jsonl")
                try:
                    n = check_trace(path)
                    print(f"{name}: trace parses ({n} spans)")
                except (OSError, ValueError) as e:
                    problems.append(f"{name}: trace does not parse: {e}")
            print(f"{name} trace={trace}: {len(result['metrics'])} metrics checked")
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        die("--workload is required")
    seconds = args.seconds or load_spec()["run_seconds"]
    code, _ = run_once(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
