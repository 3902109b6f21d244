/**
 * @file
 * Example: the fused-kernel services beyond the headline fault path —
 * whole-process migration (§5), data packing in contiguous physical
 * memory (§5/§6), and the remote kernel-memory guard (the paper's
 * future-work security mechanism), all in one session.
 */

#include <cstdio>

#include "stramash/core/app.hh"
#include "stramash/fused/packing.hh"

using namespace stramash;

int
main()
{
    setQuiet(true);

    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.remoteGuard = GuardMode::Enforce; // MPU-style enforcement
    System sys(cfg);

    App app(sys, 0);
    Addr buf = app.mmap(32 * pageSize);
    // Interleave with a second region so frames scatter.
    Addr other = app.mmap(32 * pageSize);
    for (int i = 0; i < 32; ++i) {
        app.write<std::uint64_t>(buf + Addr(i) * pageSize, i * 3 + 1);
        app.write<std::uint64_t>(other + Addr(i) * pageSize, 0);
    }

    // --- data packing -------------------------------------------------
    KernelInstance &k0 = sys.kernel(0);
    Task &t0 = k0.task(app.pid());
    std::printf("before packing: VMA physically contiguous? %s\n",
                vmaIsPacked(k0, t0, buf) ? "yes" : "no");
    auto pack = packVmaContiguous(k0, t0, buf);
    if (pack) {
        std::printf("packed %llu pages into [%#llx, %#llx) — "
                    "contiguous? %s\n",
                    static_cast<unsigned long long>(pack->pagesMoved),
                    static_cast<unsigned long long>(pack->base),
                    static_cast<unsigned long long>(pack->base +
                                                    pack->bytes),
                    vmaIsPacked(k0, t0, buf) ? "yes" : "no");
    }

    // --- whole-process migration ---------------------------------------
    std::printf("\nprocess-migrating pid %u to the %s kernel...\n",
                app.pid(), isaName(sys.kernel(1).isa()));
    sys.migrateProcess(app.pid(), 1);
    bool intact = app.read<std::uint64_t>(buf + 5 * pageSize) == 16;
    std::printf("now origin=%u, data intact: %s, messages used: %llu\n",
                sys.kernel(1).task(app.pid()).origin,
                intact ? "yes" : "NO",
                static_cast<unsigned long long>(sys.messagesSent()));

    // --- the guard ------------------------------------------------------
    std::printf("\nremote kernel-memory guard: mode=%s, "
                "legit accesses checked=%llu, violations=%llu\n",
                guardModeName(sys.remoteGuard().mode()),
                static_cast<unsigned long long>(
                    sys.remoteGuard().checked()),
                static_cast<unsigned long long>(
                    sys.remoteGuard().violations()));
    std::printf("node0 exposes %llu KiB of kernel memory remotely "
                "(data region + page-table frames)\n",
                static_cast<unsigned long long>(
                    sys.remoteGuard().exposedBytes(0) >> 10));
    return intact && sys.remoteGuard().violations() == 0 ? 0 : 1;
}
