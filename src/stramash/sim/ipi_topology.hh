/**
 * @file
 * IPI latency modelling (paper §7.2, §9.1.1, Figures 5 and 6).
 *
 * The paper measures IPI latency between every core pair on four real
 * machines (RDTSC + MONITOR/MWAIT) and finds ~2 us averages on the
 * large pairs, which it adopts as the simulated cross-ISA IPI cost.
 * We model each machine's interconnect topology — cores grouped into
 * clusters (sharing an L2/mesh stop) grouped into sockets — with a
 * latency term per boundary crossed plus deterministic measurement
 * jitter, and reproduce the per-pair latency matrices.
 */

#ifndef STRAMASH_SIM_IPI_TOPOLOGY_HH
#define STRAMASH_SIM_IPI_TOPOLOGY_HH

#include <string>
#include <vector>

#include "stramash/common/rng.hh"
#include "stramash/common/types.hh"
#include "stramash/mem/topology.hh"

namespace stramash
{

/** Topology-based IPI latency model for one physical machine. */
struct IpiTopologyModel
{
    std::string name;
    unsigned numCores;
    unsigned coresPerCluster;
    unsigned clustersPerSocket;
    double baseNs;     ///< same-cluster IPI latency
    double clusterNs;  ///< added when crossing clusters
    double socketNs;   ///< added when crossing sockets
    double jitterNs;   ///< half-width of uniform measurement noise

    /** Model of the paper's small_Arm (Broadcom A72, 8 cores). */
    static IpiTopologyModel smallArm();
    /** Model of big_Arm (dual ThunderX2, 32 cores/socket). */
    static IpiTopologyModel bigArm();
    /** Model of small_x86 (Xeon E5-2620 v4, 8 cores). */
    static IpiTopologyModel smallX86();
    /** Model of big_x86 (dual Xeon Gold 6230R, 26 cores/socket). */
    static IpiTopologyModel bigX86();

    /**
     * The interconnect of a fused machine built from @p spec: each
     * topology node is one cluster of its cores, all on one coherent
     * fabric ("socket"). Cross-node IPIs pay the cluster-crossing
     * term tuned so the mean lands on the paper's ~2 us cross-ISA
     * figure regardless of node count.
     */
    static IpiTopologyModel fused(const TopologySpec &spec);

    unsigned
    socketOf(unsigned core) const
    {
        return core / (coresPerCluster * clustersPerSocket);
    }

    unsigned
    clusterOf(unsigned core) const
    {
        return core / coresPerCluster;
    }

    /** One measured IPI latency sample in nanoseconds. */
    double measureNs(unsigned from, unsigned to, Rng &rng) const;

    /**
     * The full from x to latency matrix (averaged over @p samples),
     * i.e. the data behind Figures 5 and 6.
     */
    std::vector<std::vector<double>> latencyMatrixNs(
        unsigned samples, std::uint64_t seed) const;

    /** Mean of the off-diagonal entries of the matrix, in ns. */
    static double meanOffDiagonalNs(
        const std::vector<std::vector<double>> &m);
};

} // namespace stramash

#endif // STRAMASH_SIM_IPI_TOPOLOGY_HH
