#!/usr/bin/env python3
"""Host time per simulator layer, from program-counter samples.

    python3 tools/hostprof/hostprof.py run [--lib SO] [--out PREFIX]
        [--json FILE] -- CMD [ARGS...]
    python3 tools/hostprof/hostprof.py report SAMPLES [--json FILE]

`run` starts CMD with libhostprof.so preloaded (the SIGPROF sampler
in hostprof.cc; build it with `cmake --build build --target hostprof`)
and reports on the samples CMD's process wrote. `report` reads a
sample file written earlier.

Each sampled program counter is resolved with `addr2line -a -f -i -C`,
which lists the inline frames innermost first. A sample is charged to
the layer of the innermost frame whose source file belongs to one of
LAYERS below; frames in helpers outside every layer (std::, base/rng.h,
base/bitfield.h, ...) are skipped, so an inlined std::vector access in
the TLB index counts as TLB. A sample with no layer frame (libc, the
dynamic loader) is "other". The report lists per-layer samples, share
and host seconds (the share of the process's CPU time), the top
functions and the top instructions with their inline chains.
"""

import argparse
import collections
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Layer -> source path fragments; the first layer that matches wins.
LAYERS = (
    ("TLB", ("src/core/tlb.", "src/base/indexed_lru.h")),
    ("cache model", ("src/mem/",)),
    ("walk/PWC", ("src/pt/", "src/core/pwc.")),
    ("PMP/HPMP check", ("src/pmp/", "src/pmpt/", "src/hpmp/")),
    ("stats/core model", ("src/base/stats.", "src/base/attribution.h",
                          "src/core/core_model.")),
    ("machine pipeline", ("src/core/machine.", "src/core/virt_machine.",
                          "src/core/smp.")),
    ("runner/workload", ("src/workloads/", "perfbench/sim/", "bench/")),
    ("monitor/os", ("src/monitor/", "src/os/", "src/migrate/",
                    "src/verify/")),
)
OTHER = "other"


def layer_of(path):
    for name, fragments in LAYERS:
        if any(f in path for f in fragments):
            return name
    return None


def read_samples(path):
    """({header key: int}, [(start, end, offset, module)], [pc])."""
    with open(path) as f:
        words = f.readline().split()[1:]
        head = {k: int(v) for k, v in zip(words[::2], words[1::2])}
        maps, pcs = [], []
        for line in f:
            if line.startswith("map "):
                _, start, end, offset, module = line.split(maxsplit=4)
                maps.append((int(start, 16), int(end, 16), int(offset, 16),
                             module.strip()))
            else:
                pcs.append(int(line, 16))
    return head, maps, pcs


def load_segments(module):
    """[(p_offset, p_filesz, p_vaddr)] of an ELF64's PT_LOAD headers."""
    with open(module, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", ident, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", ident, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_filesz, p_vaddr))
    return segments


def to_module_addrs(maps, pcs):
    """{module: {link-time address: sample count}}, plus unmapped count."""
    segments = {}
    by_module = collections.defaultdict(collections.Counter)
    unmapped = 0
    for pc, count in collections.Counter(pcs).items():
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None:
            unmapped += count
            continue
        start, _, offset, module = hit
        if module not in segments:
            try:
                segments[module] = load_segments(module)
            except OSError:
                segments[module] = []
        file_off = pc - start + offset
        vaddr = next((file_off - o + v for o, size, v in segments[module]
                      if o <= file_off < o + size), file_off)
        by_module[module][vaddr] += count
    return by_module, unmapped


def inline_frames(module, addrs):
    """{address: [(function, file:line)], innermost first}."""
    if not addrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
        input="\n".join(f"{a:x}" for a in addrs), capture_output=True,
        text=True, check=False)
    frames, current, lines = {}, None, proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        where = lines[i + 1] if i + 1 < len(lines) else "??:0"
        frames[current].append((lines[i], where))
        i += 2
    return frames


def charge(frames):
    """(layer, innermost layer frame) of one sample's inline chain."""
    for function, where in frames:
        layer = layer_of(where)
        if layer:
            return layer, (function, where)
    return OTHER, frames[0] if frames else ("??", "??:0")


def short(function):
    name = function.split("(")[0]
    return name if len(name) <= 60 else name[:57] + "..."


def report(path, json_out=None, top=12):
    head, maps, pcs = read_samples(path)
    by_module, unmapped = to_module_addrs(maps, pcs)
    layers = collections.Counter({OTHER: unmapped})
    functions = collections.Counter()
    insns = []
    for module, counts in by_module.items():
        frames = inline_frames(module, sorted(counts))
        for addr, count in counts.items():
            chain = frames.get(addr, [])
            layer, (function, _) = charge(chain)
            layers[layer] += count
            functions[(layer, short(function))] += count
            insns.append((count, Path(module).name, addr, layer, chain))
    total = max(1, len(pcs))
    cpu_s = head["cpu_ns"] / 1e9
    sec = cpu_s / total  # host seconds one sample stands for
    print(f"{path}: {len(pcs)} samples over {cpu_s:.2f} s CPU "
          f"(asked every {head['interval_us']} us), "
          f"dropped {head['dropped']}")
    print(f"{'layer':<20}{'samples':>9}{'share':>8}{'host_s':>9}")
    order = [name for name, _ in LAYERS] + [OTHER]
    for name in order:
        n = layers[name]
        print(f"{name:<20}{n:>9}{100.0 * n / total:>7.1f}%{n * sec:>9.2f}")
    print(f"\ntop functions (innermost layer frame)")
    for (layer, function), n in functions.most_common(top):
        print(f"{100.0 * n / total:>6.1f}%  {layer:<18} {function}")
    print(f"\ntop instructions")
    insns.sort(key=lambda x: -x[0])
    for count, module, addr, layer, chain in insns[:top]:
        where = " <- ".join(short(f) for f, _ in chain[:3]) or "??"
        print(f"{100.0 * count / total:>6.1f}%  {module}+{addr:#x} "
              f"[{layer}] {where}")
    if json_out:
        with open(json_out, "w") as f:
            json.dump({"samples": len(pcs), "cpu_s": cpu_s,
                       "dropped": head["dropped"],
                       "layers": {n: layers[n] for n in order}}, f,
                      indent=1)


def run(args):
    lib = Path(args.lib).resolve()
    if not lib.exists():
        sys.exit(f"hostprof: {lib} not found; build the hostprof target")
    env = dict(os.environ, LD_PRELOAD=str(lib), HOSTPROF_OUT=args.out)
    with subprocess.Popen(args.cmd, env=env) as proc:
        returncode = proc.wait()
    path = f"{args.out}.{proc.pid}"
    if not os.path.exists(path):
        sys.exit(f"hostprof: {args.cmd[0]} wrote no samples ({path})")
    report(path, args.json)
    return returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    r = sub.add_parser("run", help="run a command under the sampler")
    r.add_argument("--lib", default=str(ROOT / "build/tools/libhostprof.so"))
    r.add_argument("--out", default="hostprof",
                   help="sample file prefix; the pid is appended")
    r.add_argument("--json", help="write per-layer samples as JSON")
    r.add_argument("cmd", nargs=argparse.REMAINDER)
    p = sub.add_parser("report", help="report on a sample file")
    p.add_argument("samples")
    p.add_argument("--json", help="write per-layer samples as JSON")
    args = parser.parse_args()
    if args.action == "run":
        if args.cmd and args.cmd[0] == "--":
            args.cmd = args.cmd[1:]
        if not args.cmd:
            parser.error("run needs a command after --")
        return run(args)
    report(args.samples, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
