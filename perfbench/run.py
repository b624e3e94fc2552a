#!/usr/bin/env python3
"""Build the fabric benchmark from source and run one workload.

    python3 perfbench/run.py --workload kv-window --seed 1 --seconds 30 --trace 0

Run from the repository root.  --workload all runs the four workloads
in turn.  The Go toolchain's caches, the binary,
span files and result records all go under .bench_build/ in the root.
The last line of standard output is the result as one JSON object; a
failed build or run exits non-zero without printing one.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850
# A run is killed after its timed seconds plus this allowance for its
# set-ups, warm-up, span file and result record.
RUN_SETUP_ALLOWANCE_S = 130
WORKLOADS = ["call-bare", "kv-window", "vpn-stream", "web-epc"]


def source_id():
    """Names the program revision: a hash of the Go sources and module
    files, preceded by the git commit when there is one and a "+dirty"
    mark when the working tree differs from it."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            if head.returncode == 0 and status.returncode == 0:
                commit = "git:" + head.stdout.strip() + ("+dirty" if status.stdout.strip() else "") + " "
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit + "tree:" + h.hexdigest()[:16]


def run(cmd, cwd, env, timeout, stdout=None):
    """Runs cmd, killing it and waiting for it if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal", "core"))):
        print("perfbench: the program's sources (go.mod, internal/) are not next to perfbench/", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    # Build output goes to stderr so stdout stays the result stream.
    rc = run(["go", "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1
    args = sys.argv[1:]
    seconds = 30.0
    if "--seconds" in args[:-1]:
        try:
            seconds = float(args[args.index("--seconds") + 1])
        except ValueError:
            pass  # the benchmark itself rejects the argument
    source = source_id()
    runs = [args]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        i = args.index("--workload") + 1
        runs = [args[:i] + [w] + args[i + 1:] for w in WORKLOADS]
    for a in runs:
        sys.stdout.flush()
        rc = run([binary, "--out", BUILD, "--source", source] + a, ROOT, env, seconds + RUN_SETUP_ALLOWANCE_S)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
