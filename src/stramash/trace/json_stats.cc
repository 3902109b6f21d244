#include "stramash/trace/json_stats.hh"

#include <fstream>

#include "stramash/common/logging.hh"
#include "stramash/trace/json_util.hh"

namespace stramash
{

void
JsonStatsExporter::add(const StatGroup &group)
{
    GroupSnapshot snap;
    snap.counters = group.counters();
    for (const auto &kv : group.histograms()) {
        const Histogram &h = kv.second;
        HistSnapshot hs;
        hs.count = h.count();
        hs.min = h.minValue();
        hs.max = h.maxValue();
        hs.mean = h.mean();
        hs.p50 = h.percentile(0.50);
        hs.p99 = h.percentile(0.99);
        hs.p999 = h.percentile(0.999);
        hs.edges = h.edges();
        hs.buckets = h.buckets();
        snap.histograms.emplace(kv.first, std::move(hs));
    }
    groups_[group.name()] = std::move(snap);
}

void
JsonStatsExporter::writeGroupsObject(std::ostream &os) const
{
    os << "{";
    bool firstGroup = true;
    for (const auto &gkv : groups_) {
        if (!firstGroup)
            os << ",";
        firstGroup = false;
        os << "\n  ";
        json::writeString(os, gkv.first);
        os << ":{\"counters\":{";
        bool first = true;
        for (const auto &ckv : gkv.second.counters) {
            if (!first)
                os << ",";
            first = false;
            json::writeString(os, ckv.first);
            os << ":" << ckv.second;
        }
        os << "},\"histograms\":{";
        first = true;
        for (const auto &hkv : gkv.second.histograms) {
            if (!first)
                os << ",";
            first = false;
            const HistSnapshot &h = hkv.second;
            json::writeString(os, hkv.first);
            os << ":{\"count\":" << h.count << ",\"min\":" << h.min
               << ",\"max\":" << h.max << ",\"mean\":";
            json::writeDouble(os, h.mean);
            os << ",\"p50\":";
            json::writeDouble(os, h.p50);
            os << ",\"p99\":";
            json::writeDouble(os, h.p99);
            os << ",\"p999\":";
            json::writeDouble(os, h.p999);
            os << ",\"samples\":" << h.count;
            os << ",\"edges\":[";
            for (std::size_t i = 0; i < h.edges.size(); ++i)
                os << (i ? "," : "") << h.edges[i];
            os << "],\"buckets\":[";
            for (std::size_t i = 0; i < h.buckets.size(); ++i)
                os << (i ? "," : "") << h.buckets[i];
            os << "]}";
        }
        os << "}}";
    }
    os << "\n}";
}

void
JsonStatsExporter::write(std::ostream &os) const
{
    os << "{\"groups\":";
    writeGroupsObject(os);
    os << "}\n";
}

bool
JsonStatsExporter::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open stats output file ", path);
        return false;
    }
    write(os);
    return static_cast<bool>(os);
}

} // namespace stramash
