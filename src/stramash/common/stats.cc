#include "stramash/common/stats.hh"

#include <algorithm>

namespace stramash
{

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::min(1.0, std::max(0.0, p));
    if (p == 0.0)
        return static_cast<double>(min_);
    // Rank of the requested quantile, in (0, count].
    double target = p * static_cast<double>(count_);
    if (target < 1.0)
        target = 1.0;

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (static_cast<double>(cum + buckets_[i]) >= target) {
            // Bucket bounds, clamped to the observed extremes so
            // interpolation never leaves [min, max].
            double lo = i == 0 ? static_cast<double>(min_)
                               : static_cast<double>(edges_[i - 1]);
            double hi = i < edges_.size()
                            ? static_cast<double>(edges_[i])
                            : static_cast<double>(max_);
            lo = std::max(lo, static_cast<double>(min_));
            hi = std::min(hi, static_cast<double>(max_));
            if (hi <= lo)
                return lo;
            double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(buckets_[i]);
            return lo + frac * (hi - lo);
        }
        cum += buckets_[i];
    }
    return static_cast<double>(max_);
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    panic_if(edges_ != other.edges_,
             "Histogram::merge with mismatched bucket edges");
    if (other.count_ == 0)
        return;
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatGroup::histogram(const std::string &name,
                     std::vector<std::uint64_t> edges)
{
    return histograms_.try_emplace(name, std::move(edges)).first->second;
}

bool
StatGroup::has(const std::string &name) const
{
    return counters_.count(name) != 0;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) != 0;
}

std::uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const Histogram *
StatGroup::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void
StatGroup::resetAll()
{
    for (auto &kv : counters_)
        kv.second = 0;
    for (auto &kv : histograms_)
        kv.second.reset();
}

} // namespace stramash
