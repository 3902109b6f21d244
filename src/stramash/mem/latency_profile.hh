/**
 * @file
 * Per-core-type memory operation latencies (paper Table 2).
 *
 * All values are in core cycles. "remoteMem" is the CXL-attached /
 * cross-node latency from Sharma's CXL characterisation, as cited by
 * the paper.
 */

#ifndef STRAMASH_MEM_LATENCY_PROFILE_HH
#define STRAMASH_MEM_LATENCY_PROFILE_HH

#include <string>

#include "stramash/common/types.hh"

namespace stramash
{

/** Which published core the latency numbers describe. */
enum class CoreModel : std::uint8_t {
    CortexA72,  ///< small_Arm  (Broadcom Armv8 A72)
    ThunderX2,  ///< big_Arm    (Cavium ThunderX2 CN9980)
    E5_2620,    ///< small_x86  (Xeon E5-2620 v4, Broadwell)
    XeonGold,   ///< big_x86    (Xeon Gold 6230R, Cascade Lake)
};

const char *coreModelName(CoreModel m);

/** Memory-operation latency table for one core type. */
struct LatencyProfile
{
    CoreModel model;
    Cycles l1;        ///< L1 hit
    Cycles l2;        ///< L2 hit
    Cycles l3;        ///< L3 hit (0 = no L3, e.g. Cortex-A72 pairs)
    Cycles mem;       ///< local DRAM
    Cycles remoteMem; ///< remote / CXL-pool DRAM
    double ghz;       ///< core clock, for us<->cycles conversion

    /** Latency of a hit at cache level 1..3. */
    Cycles
    levelLatency(int level) const
    {
        switch (level) {
          case 1: return l1;
          case 2: return l2;
          case 3: return l3;
          default: return mem;
        }
    }
};

/** Table 2 row for the given core. */
const LatencyProfile &latencyProfile(CoreModel m);

/**
 * CXL coherence (snoop) overheads, in cycles, applied on top of the
 * base memory latency when a cross-node coherence action is needed
 * (paper Section 7.3, "CXL Access Overhead Feedback").
 */
struct SnoopCosts
{
    /** Write hits a line another node holds: Snoop Invalidate. */
    Cycles snoopInvalidate = 120;
    /** Read hits a line another node holds dirty: Snoop Data. */
    Cycles snoopData = 100;
    /** Pool-device-initiated Back-Invalidate Snoop. */
    static constexpr Cycles backInvalidate = 140;
};

} // namespace stramash

#endif // STRAMASH_MEM_LATENCY_PROFILE_HH
