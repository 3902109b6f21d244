/**
 * @file
 * Table 4: global memory allocator overheads — time to offline and
 * online memory slices of 2^15..2^20 pages on the x86 and Arm
 * kernels (milliseconds; the paper's §9.2.7 uses 4 GB of dynamically
 * shared memory in 256 MB slices and attributes the cost mainly to
 * the page isolation pass).
 */

#include <cstdio>

#include "common/bench_util.hh"
#include "stramash/common/units.hh"
#include "stramash/fused/global_alloc.hh"

using namespace stramash;
using namespace stramash::bench;

int
main()
{
    setQuiet(true);
    std::printf("=== Table 4: memory allocator offline/online "
                "overheads ===\n\n");

    Table tab({"pages", "slice", "x86 offline(ms)", "x86 online(ms)",
               "arm offline(ms)", "arm online(ms)"});

    bool monotonic = true;
    bool offlineDominates = true;
    double prevX86Off = 0;

    for (unsigned log2Pages = 15; log2Pages <= 20; ++log2Pages) {
        Addr pages = Addr{1} << log2Pages;
        Addr sliceBytes = pages * pageSize;

        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.memoryModel = MemoryModel::Shared;
        // TCP transport so the pool is free of the messaging rings
        // and a full 4 GiB slice fits.
        cfg.transport = Transport::Network;
        cfg.enableGlobalAllocator = false; // we drive our own
        System sys(cfg);

        GmaConfig gcfg;
        gcfg.blockSize = sliceBytes;
        std::vector<KernelInstance *> ks{&sys.kernel(0),
                                         &sys.kernel(1)};
        GlobalMemoryAllocator gma(sys.machine(), sys.msg(), ks, gcfg);

        AddrRange b0{4_GiB, 4_GiB + sliceBytes};
        // A second block when it fits; otherwise the Arm kernel
        // reuses the first one after the x86 side releases it.
        AddrRange b1 = (b0.end + sliceBytes <= 8_GiB)
                           ? AddrRange{b0.end, b0.end + sliceBytes}
                           : b0;

        double x86ghz = latencyProfile(CoreModel::XeonGold).ghz;
        double armghz = latencyProfile(CoreModel::ThunderX2).ghz;

        Cycles onX86 = gma.onlineBlock(sys.kernel(0), b0);
        Cycles offX86 = gma.offlineBlock(sys.kernel(0), b0);
        Cycles onArm = gma.onlineBlock(sys.kernel(1), b1);
        Cycles offArm = gma.offlineBlock(sys.kernel(1), b1);

        auto ms = [](Cycles c, double ghz) {
            return static_cast<double>(c) / (ghz * 1e6);
        };
        double x86OffMs = ms(offX86, x86ghz);
        tab.addRow({"2^" + std::to_string(log2Pages),
                    std::to_string(sliceBytes >> 20) + "MiB",
                    Table::num(x86OffMs, 1),
                    Table::num(ms(onX86, x86ghz), 1),
                    Table::num(ms(offArm, armghz), 1),
                    Table::num(ms(onArm, armghz), 1)});

        monotonic &= x86OffMs > prevX86Off;
        prevX86Off = x86OffMs;
        offlineDominates &= offX86 > onX86 && offArm > onArm;
    }
    tab.print();
    std::printf("\n");

    std::printf("Shape checks vs the paper:\n");
    check(monotonic,
          "cost grows with slice size (paper: 12.5ms at 2^15 to "
          "246.3ms at 2^20 for x86 offline)");
    check(offlineDominates,
          "offlining (page isolation) costs more than onlining on "
          "both ISAs");
    return checksExitCode();
}
