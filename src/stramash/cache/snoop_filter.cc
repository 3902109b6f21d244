#include "stramash/cache/snoop_filter.hh"

#include <algorithm>
#include <bit>

namespace stramash
{

SnoopFilter::SnoopFilter(std::size_t slotsPerNode)
    : slotMask_(std::bit_ceil(std::max<std::size_t>(slotsPerNode, 16)) -
                1)
{
}

void
SnoopFilter::addSharer(Addr lineAddr, NodeId node)
{
    panic_if(node >= maxNodes, "snoop filter supports at most ",
             maxNodes, " nodes, got node ", node);
    std::uint8_t *counts = byNode_[node];
    if (!counts) {
        // First presence for this node: allocate its counter array.
        storage_.emplace_back(slotMask_ + 1, 0);
        counts = storage_.back().data();
        byNode_[node] = counts;
        active_.push_back({node, counts});
    }
    std::uint8_t &c = counts[index(lineAddr)];
    if (c != 255) // saturate sticky rather than wrap to "absent"
        ++c;
}

void
SnoopFilter::clear()
{
    for (auto &counts : storage_)
        std::fill(counts.begin(), counts.end(), 0);
}

std::size_t
SnoopFilter::entryCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i <= slotMask_; ++i) {
        for (const NodeCounts &nc : active_) {
            if (nc.counts[i] != 0) {
                ++n;
                break;
            }
        }
    }
    return n;
}

} // namespace stramash
