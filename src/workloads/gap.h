/**
 * @file
 * GAP benchmark suite (paper §8.3, Fig. 11-b/c): real graph kernels
 * over a synthetic Kronecker (RMAT) graph held in simulated memory.
 *
 * The six kernels — bc, bfs, cc, pr, sssp, tc — run their actual
 * algorithms on a CSR graph whose every element access is a timed
 * load/store through the machine, so the irregular access patterns
 * (and hence the TLB-miss-driven isolation costs) are genuine.
 */

#ifndef HPMP_WORKLOADS_GAP_H
#define HPMP_WORKLOADS_GAP_H

#include <memory>
#include <string>
#include <vector>

#include "workloads/env.h"
#include "workloads/runner.h"

namespace hpmp
{

/** Kernel names in the paper's order. */
std::vector<std::string> gapKernels();

/** Kron (RMAT) graph in CSR form, resident in simulated memory. */
class KronGraph
{
  public:
    /**
     * Build a Kron graph with 2^scale vertices (1 <= scale <= 32, so
     * every vertex id fits a uint32_t) and about 2^scale * degree
     * directed edges (paper: graph500 parameters, scaled down for
     * simulation). Self-loops are dropped and each neighbour list is
     * sorted and deduplicated.
     */
    KronGraph(Runner &runner, unsigned scale, unsigned degree,
              uint64_t seed = 0x9a9);

    uint64_t numVertices() const { return numVertices_; }
    uint64_t numEdges() const { return numEdges_; }

    /** Timed CSR reads. */
    uint64_t offset(uint64_t v) { return offsets_->get(v); }
    uint32_t neighbor(uint64_t e) { return neighbors_->get(e); }

    /** Untimed (host-side) reads for verification. */
    uint64_t peekOffset(uint64_t v) const { return offsets_->peek(v); }
    uint32_t peekNeighbor(uint64_t e) const { return neighbors_->peek(e); }
    uint64_t
    degreeOf(uint64_t v) const
    {
        return peekOffset(v + 1) - peekOffset(v);
    }

  private:
    uint64_t numVertices_;
    uint64_t numEdges_;
    std::unique_ptr<SimArray<uint64_t>> offsets_;
    std::unique_ptr<SimArray<uint32_t>> neighbors_;
};

/** GAP suite bound to an environment. */
class GapSuite
{
  public:
    /** Builds the graph inside a fresh enclave of env. */
    explicit GapSuite(TeeEnv &env, unsigned scale = 18,
                      unsigned degree = 8);
    ~GapSuite();

    /** Run one kernel; @return modelled seconds. */
    double run(const std::string &kernel);

    KronGraph &graph() { return *graph_; }

  private:
    uint64_t runBfs(Runner &r, uint64_t source);
    void runPr(Runner &r, unsigned iters);
    void runCc(Runner &r, unsigned max_rounds);
    void runSssp(Runner &r, uint64_t source, unsigned rounds);
    void runBc(Runner &r, uint64_t source);
    uint64_t runTc(Runner &r, uint64_t edge_budget);

    TeeEnv &env_;
    std::unique_ptr<Enclave> enclave_;
    std::unique_ptr<CoreModel> model_;
    std::unique_ptr<Runner> runner_;
    std::unique_ptr<KronGraph> graph_;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_GAP_H
