#include "stramash/core/app.hh"

#include "stramash/isa/isa.hh"

namespace stramash
{

App::App(System &sys, const PlacementHints &hints)
    : App(sys, sys.placeNode(hints))
{
}

App::App(System &sys, NodeId origin) : sys_(sys), origin_(origin)
{
    pid_ = sys_.spawn(origin);
    rebind();
    Task &t = *task_;

    // Standard layout: code, stack. Heap regions come from mmap().
    Vma code;
    code.start = 0x400000;
    code.end = 0x400000 + 2 * 1024 * 1024;
    code.prot = {true, false, true, true, false, false};
    code.kind = VmaKind::Code;
    code.name = "code";
    bool ok = t.as->vmas().insert(code);
    panic_if(!ok, "code VMA insert failed");

    Vma stack;
    stack.start = stackTop - stackBytes;
    stack.end = stackTop;
    stack.prot = {true, true, true, false, false, false};
    stack.kind = VmaKind::Stack;
    stack.name = "stack";
    ok = t.as->vmas().insert(stack);
    panic_if(!ok, "stack VMA insert failed");

    t.state.pc = code.start;
    t.state.sp = stackTop - 64;
    t.state.fp = t.state.sp;
    t.state.pid = pid_;
    t.heapBrk = heapBase;
}

App::~App()
{
    sys_.exit(pid_);
}

Addr
App::mmap(Addr bytes, bool writable, VmaKind kind,
          const std::string &name)
{
    panic_if(bytes == 0, "mmap of zero bytes");
    Addr size = pageAlignUp(bytes);
    Addr base = mmapCursor_;
    // Guard gap between regions so a stray access faults loudly.
    mmapCursor_ += size + 16 * pageSize;

    KernelInstance &k = sys_.kernel(origin_);
    Task &t = k.task(pid_);
    Vma vma;
    vma.start = base;
    vma.end = base + size;
    vma.prot.present = true;
    vma.prot.user = true;
    vma.prot.writable = writable;
    vma.prot.executable = false;
    vma.kind = kind;
    vma.name = name;
    bool ok = t.as->vmas().insert(vma);
    panic_if(!ok, "mmap VMA overlap");
    return base;
}

void
App::rebind()
{
    kernel_ = &sys_.kernel(where());
    task_ = &kernel_->task(pid_);
    boundEpoch_ = sys_.machine().placementEpoch();
}

void
App::migrate(NodeId dest)
{
    sys_.migrate(pid_, dest);
}

NodeId
App::migrateToNext()
{
    panic_if(sys_.nodeCount() < 2,
             "migrateToNext: no other node to migrate to");
    // Every peer dead: the cyclic successor is attempted anyway and the
    // migration layer refuses it (migrations_refused_dead), exactly
    // like the historical two-node dead-peer path.
    NodeId cand = sys_.nextAlivePeer(where());
    migrate(cand);
    return cand;
}

void
App::readBuf(Addr va, void *dst, std::size_t size)
{
    Current c = current();
    // One instruction per cache line moved.
    c.kernel.machine().retire(c.kernel.nodeId(),
                              (size + cacheLineSize - 1) / cacheLineSize);
    c.kernel.userRead(c.task, va, dst, size);
}

void
App::writeBuf(Addr va, const void *src, std::size_t size)
{
    Current c = current();
    c.kernel.machine().retire(c.kernel.nodeId(),
                              (size + cacheLineSize - 1) / cacheLineSize);
    c.kernel.userWrite(c.task, va, src, size);
}

void
App::compute(std::uint64_t units)
{
    KernelInstance &k = currentKernel();
    double exp = isaDescriptor(k.isa()).instExpansion;
    k.machine().retire(k.nodeId(), static_cast<ICount>(
                                       static_cast<double>(units) *
                                       exp));
}

bool
App::futexWait(Addr uaddr, std::uint32_t expected)
{
    Current c = current();
    STRAMASH_TRACE_SPAN(c.kernel.machine().tracer(), TraceCategory::Futex,
                        "futex.wait", c.kernel.nodeId(), pid_, uaddr,
                        expected);
    return sys_.futexPolicy().wait(c.kernel, c.task, uaddr, expected);
}

unsigned
App::futexWake(Addr uaddr, unsigned count)
{
    Current c = current();
    STRAMASH_TRACE_SPAN(c.kernel.machine().tracer(), TraceCategory::Futex,
                        "futex.wake", c.kernel.nodeId(), pid_, uaddr,
                        count);
    return sys_.futexPolicy().wake(c.kernel, c.task, uaddr, count);
}

std::uint32_t
App::fetchAdd(Addr uaddr, std::uint32_t delta)
{
    Current c = beginAccess();
    return c.kernel.userFetchAdd(c.task, uaddr, delta);
}

bool
App::cas(Addr uaddr, std::uint32_t expected, std::uint32_t desired)
{
    Current c = beginAccess();
    bool ok = false;
    c.kernel.userCas(c.task, uaddr, expected, desired, ok);
    return ok;
}

} // namespace stramash
