#include "stramash/trace/trace.hh"

#include <algorithm>

namespace stramash
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Fault: return "fault";
      case TraceCategory::Msg: return "msg";
      case TraceCategory::Ipi: return "ipi";
      case TraceCategory::Futex: return "futex";
      case TraceCategory::Migrate: return "migrate";
      case TraceCategory::Alloc: return "alloc";
      case TraceCategory::Coherence: return "coherence";
      case TraceCategory::App: return "app";
      case TraceCategory::Chaos: return "chaos";
      case TraceCategory::Sched: return "sched";
    }
    panic("unknown TraceCategory");
}

// ===================== TraceBuffer ===================================

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity)
{
    panic_if(capacity == 0, "TraceBuffer needs capacity >= 1");
}

void
TraceBuffer::record(const TraceEvent &ev)
{
    // The ring is allocated on first use, so a node that never
    // records (tracing off, or a masked-out category) costs nothing.
    if (ring_.empty())
        ring_.resize(capacity_);
    ring_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_)
        ++size_;
    else
        ++dropped_; // overwrote the oldest event
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ once the ring has wrapped.
    std::size_t start = (head_ + capacity_ - size_) % capacity_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % capacity_]);
    return out;
}

void
TraceBuffer::clear()
{
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

// ===================== Tracer ========================================

Tracer::Tracer(const TraceConfig &cfg, std::size_t nodeCount,
               ClockFn clock)
    : cfg_(cfg), clock_(std::move(clock))
{
    panic_if(!clock_, "Tracer needs a clock");
    std::size_t entries = cfg_.bufferEntries ? cfg_.bufferEntries : 1;
    buffers_.reserve(nodeCount);
    for (std::size_t i = 0; i < nodeCount; ++i)
        buffers_.emplace_back(entries);
}

void
Tracer::emit(TraceCategory c, const char *name, NodeId node, Pid pid,
             Cycles start, Cycles end, std::uint64_t arg0,
             std::uint64_t arg1)
{
    if (!enabledFor(c))
        return;
    buffer(node).record({c, name, node, pid, start, end, arg0, arg1});
}

void
Tracer::instant(TraceCategory c, const char *name, NodeId node, Pid pid,
                std::uint64_t arg0, std::uint64_t arg1)
{
    if (!enabledFor(c))
        return;
    Cycles t = now(node);
    buffer(node).record({c, name, node, pid, t, t, arg0, arg1});
}

TraceBuffer &
Tracer::buffer(NodeId node)
{
    panic_if(node >= buffers_.size(), "tracer: unknown node ", node);
    return buffers_[node];
}

const TraceBuffer &
Tracer::buffer(NodeId node) const
{
    panic_if(node >= buffers_.size(), "tracer: unknown node ", node);
    return buffers_[node];
}

std::vector<TraceEvent>
Tracer::merged() const
{
    std::vector<TraceEvent> out;
    for (const auto &b : buffers_) {
        auto evs = b.snapshot();
        out.insert(out.end(), evs.begin(), evs.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.startCycles < b.startCycles;
                     });
    return out;
}

std::uint64_t
Tracer::totalDropped() const
{
    std::uint64_t total = 0;
    for (const auto &b : buffers_)
        total += b.dropped();
    return total;
}

std::uint64_t
Tracer::totalEvents() const
{
    std::uint64_t total = 0;
    for (const auto &b : buffers_)
        total += b.size();
    return total;
}

void
Tracer::clear()
{
    for (auto &b : buffers_)
        b.clear();
}

} // namespace stramash
