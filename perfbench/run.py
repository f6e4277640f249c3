#!/usr/bin/env python3
"""The repository benchmark: simulator speed and paper fidelity.

    python3 perfbench/run.py --workload gap|lmbench|virt|tenants \\
        --seed N --seconds S --trace 0|1

Builds the simulator and the driver in perfbench/ from source (into
.bench_build/), runs one workload for S seconds of measured rounds,
checks its simulated results, prints every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, including per-layer self time from spans
recorded around each simulator call (written as chrome://tracing JSON
to .bench_out/) and the tracing overhead. README.md explains each
metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("gap", "lmbench", "virt", "tenants")
SIM_TIMEOUT_S = 170

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "macc_per_s": "Macc/s",
    "peak_rss_mb": "MiB",
    "hpmp_ovh_pct": "%",
    "mitigation_pct": "%",
}

# Per-layer metrics every workload defines, reported once per scheme.
SCHEME_LAYER = {
    "core.tlb_hit_rate": "ratio",
    "core.l2tlb_hit_share": "ratio",
    "core.walks_per_kacc": "1/kacc",
    "core.pwc_hit_rate": "ratio",
    "core.walk_cycles_p50": "cycles",
    "core.walk_cycles_p99": "cycles",
    "core.walk_cycles_max": "cycles",
    "pt.refs_per_walk": "refs",
    "pt.ad_refs_per_kacc": "1/kacc",
    "pmpt.refs_per_kacc": "1/kacc",
    "pmpt.refs_per_walk": "refs",
    "pmpt.cycle_share": "ratio",
    "hpmp.segment_share": "ratio",
    "mem.l1d_miss_rate": "ratio",
    "mem.llc_miss_rate": "ratio",
    "mem.dram_row_hit_rate": "ratio",
}
# Layers that spans are recorded for (the span name's first component).
SPAN_LAYERS = ("bench", "workloads", "core", "pt", "monitor", "smp")
PER_LAYER = {
    "workloads.env_build_s": "s",
    "workloads.input_build_s": "s",
    "core.host_ns_per_access": "ns",
    **{f"{m}.{s}": u for m, u in SCHEME_LAYER.items() for s in M.SCHEMES},
    "paper_err_pts": "points",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_pct": "%",
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(BUILD), *gen,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_sim",
         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def run_sim(args):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{stem}.json"
    spans = OUT / f"{stem}.trace.json"
    for f in (out, spans):
        f.unlink(missing_ok=True)
    cmd = [str(BUILD / "perfbench_sim"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out),
           "--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=SIM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench_sim timed out after {SIM_TIMEOUT_S} s")
        return None, None
    if done.returncode != 0:
        log(f"perfbench_sim exited with {done.returncode}")
        return None, None
    record = json.loads(out.read_text())
    trace = json.loads(spans.read_text())["traceEvents"] \
        if args.trace and spans.exists() else None
    return record, trace


def timed_rounds(host, traced=False):
    """Measured rounds after the warm-up round 0, with host time
    normalised to the reference speed (see sim/report.h)."""
    return [dict(r, norm_s=M.normalised_seconds(
                r["start"], r["ref"], host["reference_s"],
                host["reference_at"], host["reference_target_s"]))
            for r in host["rounds"][1:] if r["traced"] == traced]


def setup_seconds(host):
    """Set-up samples normalised by the kernel samples around each."""
    ref_s, target = host["reference_s"], host["reference_target_s"]
    return [s * target / statistics.fmean(ref_s[a:b])
            for s, (a, b) in zip(host["setup_s"], host["setup_ref"])]


def end_to_end(rec):
    sim, host = rec["sim"], rec["host"]
    rounds = timed_rounds(host)
    pmpt = M.mean_overhead_pct(sim["cells"], "pmpt")
    hpmp = M.mean_overhead_pct(sim["cells"], "hpmp")
    e2e = {
        "setup_s": statistics.median(setup_seconds(host)),
        # Means over rounds: the measured phase's normalised host time
        # per round, and its accesses per normalised second.
        "run_s": statistics.fmean(r["norm_s"] for r in rounds),
        "macc_per_s": sum(r["accesses"] for r in rounds) / 1e6 /
                      sum(r["norm_s"] for r in rounds),
        "peak_rss_mb": host["peak_rss_kb"] / 1024.0,
        "hpmp_ovh_pct": hpmp,
        "mitigation_pct": M.mitigation_pct(pmpt, hpmp),
    }
    return {k: v for k, v in e2e.items() if v is not None}


def per_layer(rec, spans, paper_err):
    sim, host = rec["sim"], rec["host"]
    scalars = host["scalars"]
    untraced = timed_rounds(host)
    traced = timed_rounds(host, traced=True)
    pl = {
        "workloads.env_build_s": statistics.median(host["env_build_s"]),
        "workloads.input_build_s": statistics.median(host["input_build_s"]),
    }
    if scalars.get("accessbatch_accesses"):
        pl["core.host_ns_per_access"] = (
            1e9 * scalars["accessbatch_s"] / scalars["accessbatch_accesses"])
    else:
        pl["core.host_ns_per_access"] = (
            1e9 * sum(r["host_s"] for r in untraced) /
            sum(r["accesses"] for r in untraced))
    by_scheme = {s: M.scheme_layer_metrics(
        rec["workload"], sim["stats"][s]["groups"],
        sim["mem"][s]) for s in sim["schemes"]}
    for m in SCHEME_LAYER:
        for s in M.SCHEMES:
            if by_scheme[s].get(m) is not None:
                pl[f"{m}.{s}"] = by_scheme[s][m]
    if paper_err is not None:
        pl["paper_err_pts"] = paper_err
    if traced and untraced:
        t = statistics.fmean(r["norm_s"] for r in traced)
        u = statistics.fmean(r["norm_s"] for r in untraced)
        pl["bench.trace_overhead_s"] = t - u
        pl["bench.trace_overhead_pct"] = 100.0 * (t - u) / u
    if spans is not None and traced:
        self_s = M.self_times(spans)
        for layer in SPAN_LAYERS:
            pl[f"{layer}.self_s"] = self_s.get(layer, 0.0) / len(traced)
    return pl, by_scheme


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def workload_extras(rec):
    """Workload-specific per-layer lines: (name, value, unit)."""
    sim, host = rec["sim"], rec["host"]
    scalars = host["scalars"]
    nrounds = len(host["rounds"])
    rows = []
    for key in sorted(scalars):
        if key.startswith("cell_s."):
            rows.append((f"workloads.{key}", scalars[key] / nrounds, "s"))
    calls = {k[len("monitor_calls."):]: v for k, v in scalars.items()
             if k.startswith("monitor_calls.")}
    for call in sorted(calls):
        rows.append((f"monitor.host_us_per_call.{call}",
                     scalars[f"monitor_us.{call}"] / calls[call], "us"))
    series = sim["series"]
    for s in sim["schemes"]:
        req = series.get(f"req_cycles.{s}")
        if req:
            for tag, p in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999)):
                rows.append((f"req_{tag}_cycles.{s}", M.percentile(req, p),
                             f"cycles (n={len(req)})"))
            sw = series[f"switch_cycles.{s}"]
            rows.append((f"monitor.switch_cycles_p50.{s}",
                         M.percentile(sw, 0.5), "cycles"))
            rows.append((f"monitor.switch_cycles_p99.{s}",
                         M.percentile(sw, 0.99), "cycles"))
            g = sim["stats"][s]["groups"]
            mon = g["monitor"]
            rows.append((f"monitor.table_writes_per_call.{s}",
                         mon["table_writes_per_call"]["mean"], "writes"))
            rows.append((f"hpmp.csr_writes_per_switch.{s}",
                         g["machine.hpmp"]["csr_writes"] / len(req),
                         "writes"))
            windows = mon["coalesced_windows"]
            rows.append((f"smp.ipi_per_window.{s}",
                         mon["ipi_post"] / windows if windows else None,
                         "IPIs"))
            shoot = mon["ipi_shootdowns"] + mon["ipi_elided"]
            rows.append((f"smp.ipi_elided_share.{s}",
                         mon["ipi_elided"] / shoot if shoot else None,
                         "ratio"))
            rows.append((f"smp.ipi_cycles_p99.{s}",
                         M.bucket_percentile(mon["ipi_cycles"], 0.99),
                         "cycles"))
    if rec["workload"] == "lmbench":
        ops = len(M.costs_by_cell(sim["cells"]))
        for s in sim["schemes"]:
            os_ = sim["stats"][s]["groups"]["os"]
            rows.append((f"os.page_faults_per_op.{s}",
                         os_["page_faults_handled"] / ops, "faults"))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    t0 = time.monotonic()
    if not build():
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    rec, spans = run_sim(args)
    if rec is None:
        return 1
    bands = json.loads((BENCH / "bands.json").read_text())["bands"]

    sim = rec["sim"]
    checks = sim["checks"] + M.cross_scheme_checks(rec["workload"],
                                                   sim["cells"])
    failed = [c for c in checks if not c["ok"]]
    e2e = end_to_end(rec)
    err, band_rows = M.paper_error(rec["workload"], sim, bands)
    pl, by_scheme = per_layer(rec, spans, err)

    print(f"== perfbench {args.workload} seed {args.seed} "
          f"({args.seconds:g} s, trace {args.trace}) ==")
    host = rec["host"]
    wall = [r["host_s"] for r in timed_rounds(host)]
    print(f"rounds {len(host['rounds'])} (round 0 is warm-up), "
          f"set-ups {len(host['setup_s'])}, "
          f"spans {host['spans']} (dropped {host['spans_dropped']}); "
          f"median round wall time {fmt(statistics.median(wall))} s, "
          f"reference kernel {fmt(statistics.median(host['reference_s']))}"
          f" s (normalised to {host['reference_target_s']:g} s)")
    print("-- end to end --")
    for name, unit in END_TO_END.items():
        print(f"  {name:<34} {fmt(e2e.get(name)):>14} {unit}")
    print(f"  {'paper_err_pts':<34} {fmt(err):>14} points")
    print(f"  {'fail_frac':<34} "
          f"{fmt(len(failed) / len(checks)):>14} ratio "
          f"({len(checks)} checks, {len(failed)} failed)")
    print("-- per layer, simulated, per scheme --")
    schemes = sim["schemes"]
    print(f"  {'metric':<28}" + "".join(f"{s:>14}" for s in schemes))
    names = list(SCHEME_LAYER) + sorted(
        {k for m in by_scheme.values() for k in m} - set(SCHEME_LAYER))
    for m in names:
        print(f"  {m:<28}" + "".join(
            f"{fmt(by_scheme[s].get(m)):>14}" for s in schemes))
    print("-- per layer, host and workload-specific --")
    for name in ("workloads.env_build_s", "workloads.input_build_s",
                 "core.host_ns_per_access", "bench.trace_overhead_s",
                 "bench.trace_overhead_pct",
                 *(f"{layer}.self_s" for layer in SPAN_LAYERS)):
        print(f"  {name:<34} {fmt(pl.get(name)):>14} {PER_LAYER[name]}")
    for name, value, unit in workload_extras(rec):
        print(f"  {name:<34} {fmt(value):>14} {unit}")
    print("-- paper bands (bands.json) --")
    for band_id, value, dist in band_rows:
        print(f"  {band_id:<40} {fmt(value):>12} %  distance {fmt(dist)}")
    print("-- checks --")
    for c in checks:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"sim_digest {M.digest(sim)}")

    chosen = END_TO_END if args.trace == 0 else PER_LAYER
    values = e2e if args.trace == 0 else pl
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
