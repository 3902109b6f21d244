/**
 * @file
 * Quickstart: stand up a fused-kernel system, run a migrating
 * application, and print what the OS and the machine observed.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "stramash/sched/scheduler.hh"

using namespace stramash;

namespace
{

/** One run under @p design; returns whether the origin read the
 *  sum back. */
bool
runOnce(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.transport = Transport::SharedMemory;
    System sys(cfg);

    // The scheduler owns placement: new tasks ask for an ISA instead
    // of hard-coding a node id.
    SchedConfig sc;
    sc.policy = PlacementPolicy::IsaAffinity;
    Scheduler sched(sys, sc);

    // A process is born on the x86 kernel...
    PlacementHints hints;
    hints.preferIsa = IsaType::X86_64;
    App app(sys, hints);
    Addr buf = app.mmap(1 << 20);

    // ...fills a buffer there...
    for (Addr a = 0; a < (1 << 20); a += 8)
        app.write<std::uint64_t>(buf + a, a * 3 + 1);

    // ...migrates to the AArch64 kernel (state transformation and
    // all), sums the buffer from the other ISA...
    app.migrateToNext();
    std::uint64_t sum = 0;
    for (Addr a = 0; a < (1 << 20); a += 8)
        sum += app.read<std::uint64_t>(buf + a);

    // ...writes the result, and migrates home.
    app.write<std::uint64_t>(buf, sum);
    app.migrateToNext();
    std::uint64_t check = app.read<std::uint64_t>(buf);

    std::printf("%-15s sum=%llu (read back on origin: %s)\n",
                osDesignName(design),
                static_cast<unsigned long long>(sum),
                check == sum ? "consistent" : "INCONSISTENT");
    std::printf("  messages sent:        %llu\n",
                static_cast<unsigned long long>(sys.messagesSent()));
    std::printf("  pages replicated:     %llu\n",
                static_cast<unsigned long long>(sys.replicatedPages()));
    std::printf("  x86 cycles:           %llu\n",
                static_cast<unsigned long long>(
                    sys.machine().node(0).cycles()));
    std::printf("  arm cycles:           %llu\n",
                static_cast<unsigned long long>(
                    sys.machine().node(1).cycles()));
    std::printf("  total runtime:        %llu cycles\n\n",
                static_cast<unsigned long long>(sys.runtime()));
    return check == sum;
}

} // namespace

int
main()
{
    std::printf("Stramash quickstart: one app, two ISAs, two OS "
                "designs\n\n");
    bool ok = runOnce(OsDesign::MultipleKernel);
    ok = runOnce(OsDesign::FusedKernel) && ok;
    return ok ? 0 : 1;
}
