#include "workloads/gap.h"

#include <algorithm>
#include <deque>

#include "base/logging.h"
#include "base/rng.h"

namespace hpmp
{

std::vector<std::string>
gapKernels()
{
    return {"bc-kron", "bfs-kron", "cc-kron", "pr-kron", "sssp-kron",
            "tc-kron"};
}

KronGraph::KronGraph(Runner &runner, unsigned scale, unsigned degree,
                     uint64_t seed)
{
    fatal_if(scale == 0 || scale > 32,
             "KronGraph: scale %u out of range [1, 32] (vertex ids are "
             "uint32_t)", scale);
    fatal_if(degree == 0, "KronGraph: degree must be at least 1");
    numVertices_ = 1ULL << scale;
    const uint64_t target_edges = numVertices_ * degree;

    // RMAT edge generator (A=0.57, B=0.19, C=0.19), as in graph500:
    // each draw p picks quadrant 0/1/2/3 at the thresholds 0.57, 0.76
    // and 0.95, whose high bit extends u and low bit extends v.
    Rng rng(seed);
    std::vector<uint32_t> src, dst;
    src.reserve(target_edges);
    dst.reserve(target_edges);
    for (uint64_t e = 0; e < target_edges; ++e) {
        uint64_t u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const double p = rng.real();
            const uint64_t ub = p >= 0.76;
            const uint64_t vb = (p >= 0.57) ^ ub ^ (p >= 0.95);
            u = (u << 1) | ub;
            v = (v << 1) | vb;
        }
        if (u == v)
            continue;
        src.push_back(uint32_t(u));
        dst.push_back(uint32_t(v));
    }

    // Counting sort on the source. After the scatter, offsets[u] is
    // one past u's slots, which start at offsets[u - 1] (0 for u = 0).
    std::vector<uint64_t> offsets(numVertices_ + 1, 0);
    for (const uint32_t u : src)
        ++offsets[u + 1];
    for (uint64_t u = 0; u < numVertices_; ++u)
        offsets[u + 1] += offsets[u];
    std::vector<uint32_t> neighbors(src.size());
    for (size_t i = 0; i < src.size(); ++i)
        neighbors[offsets[src[i]]++] = dst[i];
    src = {};
    dst = {};

    // Sort and dedup each neighbour list (needed by tc), compacting
    // the lists to the front as the final offsets are written.
    uint64_t begin = 0, out = 0;
    for (uint64_t u = 0; u < numVertices_; ++u) {
        const uint64_t end = offsets[u];
        offsets[u] = out;
        std::sort(neighbors.begin() + begin, neighbors.begin() + end);
        for (uint64_t e = begin; e < end; ++e) {
            if (out == offsets[u] || neighbors[out - 1] != neighbors[e])
                neighbors[out++] = neighbors[e];
        }
        begin = end;
    }
    offsets[numVertices_] = out;
    neighbors.resize(out);
    numEdges_ = out;

    // Offsets are mapped first, then neighbours: the order fixes every
    // simulated address the kernels touch.
    offsets_ = std::make_unique<SimArray<uint64_t>>(runner,
                                                    std::move(offsets));
    neighbors_ = std::make_unique<SimArray<uint32_t>>(runner,
                                                      std::move(neighbors));
}

GapSuite::GapSuite(TeeEnv &env, unsigned scale, unsigned degree)
    : env_(env)
{
    enclave_ = env_.createEnclave(96_MiB);
    env_.enterEnclave(*enclave_, PrivMode::User);
    model_ = std::make_unique<CoreModel>(env_.makeCoreModel());
    runner_ = std::make_unique<Runner>(*enclave_->kernel, *enclave_->as,
                                       *model_);
    graph_ = std::make_unique<KronGraph>(*runner_, scale, degree);
    env_.exitToHost();
}

GapSuite::~GapSuite()
{
    if (enclave_) {
        runner_.reset();
        graph_.reset();
        env_.destroyEnclave(std::move(enclave_));
    }
}

uint64_t
GapSuite::runBfs(Runner &r, uint64_t source)
{
    const uint64_t n = graph_->numVertices();
    SimArray<uint32_t> parent(r, n);
    for (uint64_t v = 0; v < n; ++v)
        parent.init(v, UINT32_MAX);

    uint64_t visited = 1;
    std::deque<uint64_t> frontier{source};
    parent.init(source, uint32_t(source));
    while (!frontier.empty()) {
        const uint64_t u = frontier.front();
        frontier.pop_front();
        const uint64_t begin = graph_->offset(u);
        const uint64_t end = graph_->offset(u + 1);
        for (uint64_t e = begin; e < end; ++e) {
            const uint32_t v = graph_->neighbor(e);
            if (parent.get(v) == UINT32_MAX) {
                parent.set(v, uint32_t(u));
                frontier.push_back(v);
                ++visited;
            }
            r.compute(4);
        }
    }
    return visited;
}

void
GapSuite::runPr(Runner &r, unsigned iters)
{
    const uint64_t n = graph_->numVertices();
    SimArray<uint64_t> rank(r, n);
    SimArray<uint64_t> next(r, n);
    for (uint64_t v = 0; v < n; ++v)
        rank.init(v, 1000);

    for (unsigned it = 0; it < iters; ++it) {
        for (uint64_t v = 0; v < n; ++v)
            next.init(v, 150); // base rank, untimed zeroing pass
        for (uint64_t u = 0; u < n; ++u) {
            const uint64_t begin = graph_->offset(u);
            const uint64_t end = graph_->offset(u + 1);
            if (begin == end)
                continue;
            const uint64_t share = rank.get(u) / (end - begin);
            for (uint64_t e = begin; e < end; ++e) {
                const uint32_t v = graph_->neighbor(e);
                next.set(v, next.get(v) + share);
                r.compute(3);
            }
        }
        std::swap(rank, next);
    }
}

void
GapSuite::runCc(Runner &r, unsigned max_rounds)
{
    const uint64_t n = graph_->numVertices();
    SimArray<uint32_t> comp(r, n);
    for (uint64_t v = 0; v < n; ++v)
        comp.init(v, uint32_t(v));

    for (unsigned round = 0; round < max_rounds; ++round) {
        bool changed = false;
        for (uint64_t u = 0; u < n; ++u) {
            const uint64_t begin = graph_->offset(u);
            const uint64_t end = graph_->offset(u + 1);
            uint32_t cu = comp.get(u);
            for (uint64_t e = begin; e < end; ++e) {
                const uint32_t v = graph_->neighbor(e);
                const uint32_t cv = comp.get(v);
                if (cv < cu) {
                    cu = cv;
                    changed = true;
                }
                r.compute(3);
            }
            comp.set(u, cu);
        }
        if (!changed)
            break;
    }
}

void
GapSuite::runSssp(Runner &r, uint64_t source, unsigned rounds)
{
    const uint64_t n = graph_->numVertices();
    SimArray<uint64_t> dist(r, n);
    for (uint64_t v = 0; v < n; ++v)
        dist.init(v, UINT64_MAX / 2);
    dist.init(source, 0);

    // Bounded Bellman-Ford rounds (weights derived from vertex ids).
    for (unsigned round = 0; round < rounds; ++round) {
        bool relaxed = false;
        for (uint64_t u = 0; u < n; ++u) {
            const uint64_t du = dist.get(u);
            if (du >= UINT64_MAX / 2)
                continue;
            const uint64_t begin = graph_->offset(u);
            const uint64_t end = graph_->offset(u + 1);
            for (uint64_t e = begin; e < end; ++e) {
                const uint32_t v = graph_->neighbor(e);
                const uint64_t w = 1 + (v & 7);
                if (du + w < dist.get(v)) {
                    dist.set(v, du + w);
                    relaxed = true;
                }
                r.compute(5);
            }
        }
        if (!relaxed)
            break;
    }
}

void
GapSuite::runBc(Runner &r, uint64_t source)
{
    // Brandes-like: forward BFS recording depths, then a backward
    // accumulation sweep.
    const uint64_t n = graph_->numVertices();
    SimArray<uint32_t> depth(r, n);
    SimArray<uint64_t> sigma(r, n);
    for (uint64_t v = 0; v < n; ++v) {
        depth.init(v, UINT32_MAX);
        sigma.init(v, 0);
    }
    depth.init(source, 0);
    sigma.init(source, 1);

    std::vector<uint64_t> order;
    std::deque<uint64_t> frontier{source};
    while (!frontier.empty()) {
        const uint64_t u = frontier.front();
        frontier.pop_front();
        order.push_back(u);
        const uint32_t du = depth.get(u);
        const uint64_t su = sigma.get(u);
        const uint64_t begin = graph_->offset(u);
        const uint64_t end = graph_->offset(u + 1);
        for (uint64_t e = begin; e < end; ++e) {
            const uint32_t v = graph_->neighbor(e);
            const uint32_t dv = depth.get(v);
            if (dv == UINT32_MAX) {
                depth.set(v, du + 1);
                sigma.set(v, su);
                frontier.push_back(v);
            } else if (dv == du + 1) {
                sigma.set(v, sigma.get(v) + su);
            }
            r.compute(5);
        }
    }

    SimArray<uint64_t> delta(r, n);
    for (uint64_t v = 0; v < n; ++v)
        delta.init(v, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const uint64_t u = *it;
        const uint32_t du = depth.get(u);
        const uint64_t begin = graph_->offset(u);
        const uint64_t end = graph_->offset(u + 1);
        for (uint64_t e = begin; e < end; ++e) {
            const uint32_t v = graph_->neighbor(e);
            if (depth.get(v) == du + 1)
                delta.set(u, delta.get(u) + delta.get(v) + 1);
            r.compute(6);
        }
    }
}

uint64_t
GapSuite::runTc(Runner &r, uint64_t edge_budget)
{
    // Triangle counting by sorted-list intersection over a bounded
    // number of edges (the full O(m * d) pass is sampled).
    uint64_t triangles = 0;
    uint64_t edges_done = 0;
    const uint64_t n = graph_->numVertices();
    for (uint64_t u = 0; u < n && edges_done < edge_budget; ++u) {
        const uint64_t ub = graph_->offset(u);
        const uint64_t ue = graph_->offset(u + 1);
        for (uint64_t e = ub; e < ue && edges_done < edge_budget; ++e) {
            const uint32_t v = graph_->neighbor(e);
            if (v <= u)
                continue;
            ++edges_done;
            // Intersect adj(u) and adj(v).
            const uint64_t vb = graph_->offset(v);
            const uint64_t ve = graph_->offset(v + 1);
            uint64_t i = ub, j = vb;
            uint32_t a = i < ue ? graph_->neighbor(i) : UINT32_MAX;
            uint32_t b = j < ve ? graph_->neighbor(j) : UINT32_MAX;
            while (i < ue && j < ve) {
                if (a == b) {
                    ++triangles;
                    a = ++i < ue ? graph_->neighbor(i) : UINT32_MAX;
                    b = ++j < ve ? graph_->neighbor(j) : UINT32_MAX;
                } else if (a < b) {
                    a = ++i < ue ? graph_->neighbor(i) : UINT32_MAX;
                } else {
                    b = ++j < ve ? graph_->neighbor(j) : UINT32_MAX;
                }
                r.compute(3);
            }
        }
    }
    return triangles;
}

double
GapSuite::run(const std::string &kernel)
{
    env_.enterEnclave(*enclave_, PrivMode::User);
    model_->reset();
    Runner &r = *runner_;

    {
        // The kernel's accesses are timed on the helper thread.
        const Machine::TimingStream stream = r.timingStream();
        if (kernel == "bfs-kron") {
            runBfs(r, 1);
        } else if (kernel == "pr-kron") {
            runPr(r, 1);
        } else if (kernel == "cc-kron") {
            runCc(r, 2);
        } else if (kernel == "sssp-kron") {
            runSssp(r, 1, 2);
        } else if (kernel == "bc-kron") {
            runBc(r, 1);
        } else if (kernel == "tc-kron") {
            runTc(r, graph_->numEdges() / 8);
        } else {
            fatal("unknown GAP kernel '%s'", kernel.c_str());
        }
    }

    const double seconds = model_->seconds();
    env_.exitToHost();
    return seconds;
}

} // namespace hpmp
