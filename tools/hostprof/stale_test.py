#!/usr/bin/env python3
"""hostprof refuses to report samples against a rebuilt module.

    python3 stale_test.py LIBHOSTPROF HOSTPROF_PY WORKDIR

Runs a private copy of `true` under the sampler, checks that `report`
accepts the fresh sample file, then changes the copy's mtime and its
size in turn and checks that `report` exits 2 naming the copy. Last,
replaces a private copy of `sleep` with a rebuilt one while it runs
under the sampler: its samples were taken from the old file, so
`report` must exit 2 on them too.
"""

import glob
import os
import shutil
import subprocess
import sys
import time


def report(hostprof_py, samples):
    return subprocess.run([sys.executable, hostprof_py, "report", samples],
                          capture_output=True, text=True, check=False)


def sample_file(prefix, done):
    """The one sample file a finished `hostprof.py run` wrote."""
    files = glob.glob(prefix + ".*")
    if done.returncode != 0 or len(files) != 1:
        sys.exit(f"run failed ({done.returncode}): {done.stderr}")
    return files[0]


def run_command(lib, hostprof_py, prefix, *command):
    return [sys.executable, hostprof_py, "run", "--lib", lib,
            "--out", prefix, "--", *command]


def wait_for_exec(exe, timeout_s=10.0):
    """Wait until some process runs `exe`; False on timeout."""
    exe = os.path.realpath(exe)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                if os.readlink(f"/proc/{pid}/exe") == exe:
                    return True
            except OSError:
                pass
        time.sleep(0.05)
    return False


def main():
    lib, hostprof_py, workdir = sys.argv[1:4]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    exe = os.path.join(workdir, "true_copy")
    shutil.copy2(shutil.which("true"), exe)
    prefix = os.path.join(workdir, "samples")
    done = subprocess.run(run_command(lib, hostprof_py, prefix, exe),
                          capture_output=True, text=True, check=False)
    samples = sample_file(prefix, done)

    fresh = report(hostprof_py, samples)
    if fresh.returncode != 0:
        sys.exit(f"fresh report failed: {fresh.stderr}")

    st = os.stat(exe)
    os.utime(exe, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    touched = report(hostprof_py, samples)
    if touched.returncode != 2 or exe not in touched.stderr:
        sys.exit(f"mtime change not caught ({touched.returncode}): "
                 f"{touched.stderr}")

    with open(exe, "ab") as f:
        f.write(b"\0")
    os.utime(exe, ns=(st.st_atime_ns, st.st_mtime_ns))
    grown = report(hostprof_py, samples)
    if grown.returncode != 2 or exe not in grown.stderr:
        sys.exit(f"size change not caught ({grown.returncode}): "
                 f"{grown.stderr}")

    # A rebuild lands as a new file renamed over the old one; the
    # running process keeps the old one mapped.
    sleeper = os.path.join(workdir, "sleep_copy")
    shutil.copy2(shutil.which("sleep"), sleeper)
    prefix = os.path.join(workdir, "running")
    running = subprocess.Popen(run_command(lib, hostprof_py, prefix,
                                           sleeper, "2"),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    if not wait_for_exec(sleeper):
        sys.exit("the sampled sleep never started")
    time.sleep(0.3)  # let the sampler's constructor record the maps
    rebuilt = sleeper + ".new"
    shutil.copy2(sleeper, rebuilt)
    with open(rebuilt, "ab") as f:
        f.write(b"\0")
    os.replace(rebuilt, sleeper)
    _, err = running.communicate()
    # `run` itself reports at exit and so refuses the samples already.
    if running.returncode != 2 or sleeper not in err:
        sys.exit(f"rebuild during the run not caught "
                 f"({running.returncode}): {err}")
    print("ok")


if __name__ == "__main__":
    main()
