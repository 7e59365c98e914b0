#!/usr/bin/env python3
"""Per-thread CPU attribution for one pipeline-benchmark workload.

    scripts/thread_cpu.py <workload> [seconds] [--seed N] [--bin PATH]

Builds `benchmark/` (unless --bin names a built `fd-benchmark`), runs one
workload in one process (`--workload <workload> --seconds <seconds>`, 26 by
default, as BENCHMARK.json runs it), and samples
/proc/<pid>/task/*/stat every 100 ms. It prints, per thread name
(`fd-shard-N`, `fd-wal-writer`, the main thread that dispatches, ...), the
user and system CPU-seconds and the share of the process's CPU, then the
process's own totals from /proc/<pid>/stat as a cross-check.

A thread is credited with what its last sample read, so a thread that exits
between two samples loses what it ran after the earlier one: less than
100 ms each. Threads that share a name (successive shard workers after a
restart, say) are summed. Linux only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TICK = os.sysconf("SC_CLK_TCK")


def build():
    """Builds fd-benchmark in release and returns the binary's path."""
    out = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--message-format=json",
         "--manifest-path", os.path.join(REPO, "benchmark", "Cargo.toml")],
        cwd=REPO, check=True, stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "fd-benchmark":
                return msg["executable"]
    sys.exit("cargo built no fd-benchmark binary")


def stat(path):
    """(name, user ticks, system ticks) from a /proc .../stat file."""
    with open(path) as f:
        text = f.read()
    # The name is parenthesised and may hold spaces or parentheses.
    name = text[text.index("(") + 1:text.rindex(")")]
    fields = text[text.rindex(")") + 2:].split()
    return name, int(fields[11]), int(fields[12])


def sample(pid, threads):
    """Records every live thread's counters, keyed by thread id."""
    task = f"/proc/{pid}/task"
    for tid in os.listdir(task):
        try:
            name, user, system = stat(f"{task}/{tid}/stat")
        except (FileNotFoundError, ProcessLookupError, ValueError):
            continue  # exited between listdir and open
        if int(tid) == pid:
            name = f"{name} (main)"
        threads[tid] = (name, user, system)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("seconds", nargs="?", type=float, default=26)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--bin", help="a built fd-benchmark (default: build it)")
    args = ap.parse_args()

    binary = args.bin or build()
    # A file, not a pipe: a child blocked on a full pipe would run slower.
    stdout = tempfile.TemporaryFile(mode="w+")
    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=REPO, stdout=stdout, text=True)
    threads, process = {}, (0, 0)
    while child.poll() is None:
        try:
            sample(child.pid, threads)
            process = stat(f"/proc/{child.pid}/stat")[1:]
        except (FileNotFoundError, ProcessLookupError):
            break  # exited; its last sample stands
        time.sleep(0.1)
    child.wait()
    stdout.seek(0)
    result = stdout.read().strip().splitlines()

    by_name = {}
    for name, user, system in threads.values():
        u, s = by_name.get(name, (0, 0))
        by_name[name] = (u + user, s + system)
    total = sum(u + s for u, s in by_name.values()) or 1
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s: "
          f"{len(threads)} threads sampled every 100 ms")
    print(f"{'thread':<28} {'user s':>8} {'sys s':>8} {'share':>7}")
    for name, (u, s) in sorted(by_name.items(), key=lambda kv: -sum(kv[1])):
        print(f"{name:<28} {u / TICK:>8.2f} {s / TICK:>8.2f} "
              f"{100 * (u + s) / total:>6.1f}%")
    print(f"{'threads, summed':<28} {sum(u for u, _ in by_name.values()) / TICK:>8.2f} "
          f"{sum(s for _, s in by_name.values()) / TICK:>8.2f}")
    print(f"{'process (/proc/<pid>/stat)':<28} {process[0] / TICK:>8.2f} "
          f"{process[1] / TICK:>8.2f}")
    if result:
        print(f"result: {result[-1]}")
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
