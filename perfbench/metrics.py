"""Metric math of the repository benchmark.

Everything here is a pure function of what the simulator driver
recorded (see sim/report.h): no builds, no processes, no clocks, so
tests/test_metrics.py can pin it down.
"""

import hashlib
import json
import math
import statistics

SCHEMES = ("pmp", "pmpt", "hpmp")

# A percentile is reported only when at least this many samples lie
# beyond it, so a tail figure never rests on one or two outliers.
MIN_BEYOND = 10

# Below this mean PMPT overhead (percent) PMPT ~ PMP: there is no
# extra cost for HPMP to remove, and the mitigation share is undefined.
MIN_PMPT_OVH_PCT = 0.05

# Paper's core per workload (selects the bands that apply).
WORKLOAD_CORE = {"gap": "rocket", "lmbench": "boom", "virt": "rocket",
                 "tenants": "rocket"}


# -- statistics ---------------------------------------------------------

def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p < 1) of exact samples.

    None unless at least MIN_BEYOND samples lie beyond the rank.
    """
    n = len(samples)
    rank = math.ceil(p * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def merge_dists(dists):
    """Merge log2-bucketed distributions from a stats dump."""
    merged = {"count": 0, "sum": 0, "min": None, "max": 0, "buckets": []}
    for d in dists:
        if not d or not d["count"]:
            continue
        merged["count"] += d["count"]
        merged["sum"] += d["sum"]
        merged["max"] = max(merged["max"], d["max"])
        merged["min"] = (d["min"] if merged["min"] is None
                         else min(merged["min"], d["min"]))
        b = merged["buckets"]
        b.extend([0] * (len(d["buckets"]) - len(b)))
        for i, v in enumerate(d["buckets"]):
            b[i] += v
    if merged["min"] is None:
        merged["min"] = 0
    return merged


def bucket_percentile(dist, p):
    """p-th percentile of a log2-bucketed distribution.

    The same estimate as the simulator's Distribution::percentile
    (interpolated inside the bucket, clamped to [min, max]); None unless
    at least MIN_BEYOND samples lie beyond the rank.
    """
    count = dist["count"]
    if count == 0 or count - math.ceil(p * count) < MIN_BEYOND:
        return None
    rank = p * count
    below = 0
    for i, n in enumerate(dist["buckets"]):
        if n == 0:
            continue
        if below + n >= rank:
            low = 0 if i <= 1 else 2 ** (i - 1)
            high = 0 if i == 0 else 2 ** i - 1
            v = low + (high - low) * (rank - below) / n
            return min(max(v, dist["min"]), dist["max"])
        below += n
    return dist["max"]


# -- host speed normalisation -------------------------------------------

def normalised_seconds(start, ref, ref_s, ref_at, target):
    """Host seconds of a stretch, normalised to the reference speed.

    ref_s[ref[0]:ref[1]] are reference-kernel times, started at ref_at:
    the first just before the stretch began at `start`, the last just
    after it, any others inside it. Each piece of the stretch between
    two samples is scaled by target / (their mean time); kernel time
    inside the stretch is not counted.
    """
    total, t = 0.0, start
    for j in range(ref[0] + 1, ref[1]):
        k = (ref_s[j - 1] + ref_s[j]) / 2
        total += (ref_at[j] - t) * target / k
        t = ref_at[j] + ref_s[j]
    return total


# -- paper fidelity -----------------------------------------------------

def band_distance(value, lo, hi):
    """Distance of value from [lo, hi]; 0 inside the band."""
    return max(lo - value, 0.0, value - hi)


def overhead_pct(cost, base):
    return 100.0 * (cost / base - 1.0)


def costs_by_cell(cells):
    """{cell name: {scheme: cost}}, in first-seen cell order."""
    out = {}
    for c in cells:
        out.setdefault(c["name"], {})[c["scheme"]] = c["cost"]
    return out


def mean_overhead_pct(cells, scheme, base="pmp"):
    """Mean over cells of the scheme's simulated overhead over `base`."""
    per_cell = costs_by_cell(cells)
    return statistics.fmean(overhead_pct(c[scheme], c[base])
                            for c in per_cell.values())


def mitigation_pct(pmpt_ovh, hpmp_ovh):
    """Share of PMPT's extra cost over PMP that HPMP removes (paper 8.1).

    None when PMPT ~ PMP (nothing to mitigate).
    """
    if pmpt_ovh < MIN_PMPT_OVH_PCT:
        return None
    return 100.0 * (pmpt_ovh - hpmp_ovh) / pmpt_ovh


def paper_quantities(workload, sim):
    """Workload-level simulated quantities that paper bands apply to."""
    cells = sim["cells"]
    pmpt = mean_overhead_pct(cells, "pmpt")
    hpmp = mean_overhead_pct(cells, "hpmp")
    q = {"mitigation_pct": mitigation_pct(pmpt, hpmp)}
    if workload == "lmbench":
        table3 = int(sim["scalars"]["table3_ops"])
        per_cell = list(costs_by_cell(cells).values())[:table3]
        q["pmpt_over_pmp_pct"] = statistics.fmean(
            overhead_pct(c["pmpt"], c["pmp"]) for c in per_cell)
        q["pmpt_over_hpmp_pct"] = statistics.fmean(
            overhead_pct(c["pmpt"], c["hpmp"]) for c in per_cell)
    if workload == "virt" and pmpt > 0:
        q["hpmp_keep_pct"] = 100.0 * hpmp / pmpt
        q["hpmp_gpt_keep_pct"] = (
            100.0 * mean_overhead_pct(cells, "hpmp_gpt") / pmpt)
    if workload == "tenants":
        sw = sim["series"]
        q["hpmp_switch_ovh_pct"] = overhead_pct(
            statistics.fmean(sw["switch_cycles.hpmp"]),
            statistics.fmean(sw["switch_cycles.pmp"]))
    return q


def paper_error(workload, sim, bands):
    """(mean band distance in points, [(band id, value, distance)])."""
    core = WORKLOAD_CORE[workload]
    quantities = paper_quantities(workload, sim)
    rows = []
    for band in bands:
        if band["workload"] != workload or band["core"] != core:
            continue
        if band["per"] == "cell":
            scheme = band["quantity"].split("_")[0]
            for name, c in costs_by_cell(sim["cells"]).items():
                v = overhead_pct(c[scheme], c["pmp"])
                rows.append((f"{band['id']}[{name}]", v,
                             band_distance(v, band["lo"], band["hi"])))
        elif quantities.get(band["quantity"]) is not None:
            v = quantities[band["quantity"]]
            rows.append((band["id"], v,
                         band_distance(v, band["lo"], band["hi"])))
    err = statistics.fmean(r[2] for r in rows) if rows else None
    return err, rows


# -- correctness --------------------------------------------------------

# Simulated cost must be ordered this way within every cell.
COST_ORDER = {"virt": ("pmp", "hpmp_gpt", "hpmp", "pmpt")}
DEFAULT_COST_ORDER = ("pmp", "hpmp", "pmpt")


def cross_scheme_checks(workload, cells):
    """Checks that compare schemes: equal access counts, cost order."""
    order = COST_ORDER.get(workload, DEFAULT_COST_ORDER)
    checks = []
    by_name = {}
    for c in cells:
        by_name.setdefault(c["name"], {})[c["scheme"]] = c
    for name, per in by_name.items():
        counts = {s: per[s]["accesses"] for s in per}
        checks.append({"name": f"same_accesses.{name}",
                       "ok": len(set(counts.values())) == 1,
                       "detail": json.dumps(counts, sort_keys=True)})
        costs = [per[s]["cost"] for s in order]
        checks.append({"name": f"cost_order.{name}",
                       "ok": all(a <= b for a, b in zip(costs, costs[1:])),
                       "detail": " <= ".join(f"{s}={per[s]['cost']:.6g}"
                                             for s in order)})
    return checks


# -- digest -------------------------------------------------------------

def digest(sim):
    """Stable digest of every simulated result (key order irrelevant)."""
    text = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- traced run ---------------------------------------------------------

def self_times(spans, root="bench.round"):
    """Self time (seconds) per layer over the spans under `root` spans.

    A span's self time is its duration minus the part of its interval
    that its child spans cover. Spans are chrome-trace events whose
    args carry id and parent; the layer is the name's first component.
    """
    by_id = {s["args"]["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["args"]["parent"], []).append(s)
    in_scope = {}
    for s in sorted(spans, key=lambda e: e["args"]["id"]):
        parent = by_id.get(s["args"]["parent"])
        in_scope[s["args"]["id"]] = (s["name"] == root or
                                     (parent is not None and
                                      in_scope.get(parent["args"]["id"],
                                                   False)))
    out = {}
    for s in spans:
        if not in_scope[s["args"]["id"]]:
            continue
        start, end = s["ts"], s["ts"] + s["dur"]
        covered, cursor = 0.0, start
        kids = sorted(children.get(s["args"]["id"], []),
                      key=lambda e: e["ts"])
        for k in kids:
            lo = max(k["ts"], cursor)
            hi = min(k["ts"] + k["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s["dur"] - covered) / 1e6
    return out


# -- per-layer view of a stats dump -------------------------------------

def _sum(groups, names, key):
    return sum(groups[g].get(key, 0) for g in names if g in groups)


def _ratio(num, den):
    return num / den if den else 0.0


def core_view(workload, groups):
    """Group names holding the core counters for this workload."""
    if workload == "virt":
        # pmpte references of guest walks are charged to the host
        # machine that performs the physical checks.
        return {"core": ["virt_machine"], "tlb": ["virt_machine.tlb"],
                "pwc": ["virt_machine.vs_pwc"], "hpmp": ["machine.hpmp"],
                "refs": ["virt_machine", "machine"]}
    harts = sorted(g for g in groups
                   if g == "machine" or
                   (g.startswith("hart") and g.endswith(".machine")))
    return {"core": harts, "tlb": [h + ".tlb" for h in harts],
            "pwc": [h + ".pwc" for h in harts],
            "hpmp": [h + ".hpmp" for h in harts], "refs": harts}


def scheme_layer_metrics(workload, groups, mem):
    """Per-layer simulated metrics of one scheme's stats dump."""
    v = core_view(workload, groups)
    core = v["core"]
    accesses = _sum(groups, core, "accesses")
    walks = _sum(groups, core, "walks")
    l1 = _sum(groups, v["tlb"], "l1_hits")
    l2 = _sum(groups, v["tlb"], "l2_hits")
    tlb_miss = _sum(groups, v["tlb"], "misses")
    pwc_hits = _sum(groups, v["pwc"], "hits")
    pwc_miss = _sum(groups, v["pwc"], "misses")
    dist = merge_dists(groups[g].get("walk_cycles") for g in core)

    def origin(prefixes, field):
        total = 0
        for g in v["refs"]:
            for key, val in groups[g].items():
                if not key.startswith("ref.") or not key.endswith(
                        "." + field):
                    continue
                name = key[len("ref."):-len(field) - 1]
                if any(name.startswith(p) for p in prefixes):
                    total += val if field == "count" else val["sum"]
        return total

    pt_refs = origin(("pt_", "gpt_", "npt_"), "count")
    pmpt_refs = origin(("pmpte_",), "count")
    all_cycles = origin(("",), "cycles")
    checks = _sum(groups, v["hpmp"], "checks")
    segment = _sum(groups, v["hpmp"], "segment_checks")
    m = {
        "core.tlb_hit_rate": _ratio(l1 + l2, l1 + l2 + tlb_miss),
        "core.l2tlb_hit_share": _ratio(l2, l1 + l2),
        "core.walks_per_kacc": 1000.0 * _ratio(walks, accesses),
        "core.pwc_hit_rate": _ratio(pwc_hits, pwc_hits + pwc_miss),
        "core.walk_cycles_p50": bucket_percentile(dist, 0.5),
        "core.walk_cycles_p99": bucket_percentile(dist, 0.99),
        "core.walk_cycles_max": dist["max"],
        "pt.refs_per_walk": _ratio(pt_refs, walks),
        "pt.ad_refs_per_kacc": 1000.0 * _ratio(origin(("ad",), "count"),
                                               accesses),
        "pmpt.refs_per_kacc": 1000.0 * _ratio(pmpt_refs, accesses),
        "pmpt.refs_per_walk": _ratio(pmpt_refs, walks),
        "pmpt.cycle_share": _ratio(origin(("pmpte_",), "cycles"),
                                   all_cycles),
        "hpmp.segment_share": _ratio(segment, checks),
        "mem.l1d_miss_rate": _ratio(mem["l1d_misses"],
                                    mem["l1d_hits"] + mem["l1d_misses"]),
        "mem.llc_miss_rate": _ratio(mem["llc_misses"],
                                    mem["llc_hits"] + mem["llc_misses"]),
        "mem.dram_row_hit_rate": _ratio(
            mem["dram_row_hits"],
            mem["dram_row_hits"] + mem["dram_row_misses"]),
    }
    if workload == "virt":
        vm = groups["virt_machine"]
        m["core.gtlb_hit_rate"] = groups["virt_machine.gtlb"]["hit_rate"]
        m["pt.gpt_refs_per_walk"] = _ratio(vm["gpt_refs"], walks)
        m["pt.npt_refs_per_walk"] = _ratio(vm["npt_refs"], walks)
    if "os" in groups:
        os_ = groups["os"]
        m["os.pt_pool_allocs"] = os_["pt_pool_allocs"]
        m["os.pt_fallback_allocs"] = os_["pt_fallback_allocs"]
        m["os.page_faults_handled"] = os_["page_faults_handled"]
    return m
