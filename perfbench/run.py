#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds `perfbench/` (its own Cargo package) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), prints the commit, the seed and
each workload's rationale from BENCHMARK.json, then runs the harness once
per workload. With --trace 1 it also checks the span file the harness writes
with the repository's `tracecheck` bin. The last line of stdout is the
harness's JSON result; the exit status is non-zero if the build, a run or any
output check failed.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys

HARNESS = os.path.join("perfbench", "Cargo.toml")
SPAN_FILE = os.path.join("perfbench", "out", "spans.json")
# Address-space cap for every harness process: a last line of defence if an
# epoch runs away faster than the harness's own watchdogs can react.
ADDRESS_SPACE_CAP = 6 << 30
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: name the sources by their content instead.
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(top)
            for f in files if not any(p in ("target", "out") for p in d.split(os.sep))
        )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def cargo(args, env):
    try:
        r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args], env=env,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed: cargo {' '.join(args)}")


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    try:
        with open("BENCHMARK.json") as fh:
            whys = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json from the repository root: {e}")
    names = list(whys) if a.workload == "all" else [a.workload]
    if any(n not in whys for n in names):
        fail(f"unknown workload {a.workload!r}; one of {', '.join(whys)} or all", 2)
    if not os.path.isfile(HARNESS):
        fail("run from the repository root")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo(["--manifest-path", HARNESS], env)
    if a.trace:
        cargo(["--manifest-path", HARNESS, "-p", "truthcast-obs", "--bin", "tracecheck"], env)
    target = os.path.join(env["CARGO_TARGET_DIR"], "release")

    print(f"commit                : {commit()}")
    print(f"seed                  : {a.seed}")
    for n in names:
        print(f"why {n:<18}: {whys[n]}")
    sys.stdout.flush()

    ok = True
    for n in names:
        if a.trace and os.path.exists(SPAN_FILE):
            os.remove(SPAN_FILE)
        cmd = [os.path.join(target, "perfbench"), "--workload", n, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace)]
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                               preexec_fn=cap_memory)
        except subprocess.TimeoutExpired:
            fail(f"{n}: no result within {RUN_TIMEOUT_S} s")
        lines = r.stdout.rstrip("\n").split("\n")
        result = lines.pop() if lines and lines[-1].startswith("{") else None
        print("\n".join(lines))
        if result is None:
            fail(f"{n}: harness exited with {r.returncode} and no result")
        res = json.loads(result)
        if a.trace:
            chk = subprocess.run([os.path.join(target, "tracecheck"), "--chrome", SPAN_FILE],
                                 capture_output=True, text=True, timeout=120)
            print((chk.stdout + chk.stderr).strip())
            if chk.returncode != 0:
                print(f"CHECK FAILED: {SPAN_FILE} is not a valid trace")
                res["correct"] = False
        ok = ok and r.returncode == 0 and res["correct"]
        print(json.dumps(res))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
