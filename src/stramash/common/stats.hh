/**
 * @file
 * Lightweight statistics collection.
 *
 * Every simulated component owns a StatGroup and registers named
 * counters with it. At the end of a run the groups can be dumped as a
 * flat name=value table, which the bench harnesses post-process into
 * the paper's tables and figures.
 */

#ifndef STRAMASH_COMMON_STATS_HH
#define STRAMASH_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stramash/common/logging.hh"

namespace stramash
{

/** A monotonically increasing named counter. */
using Counter = std::uint64_t;

/**
 * A fixed-bucket histogram for latency-style distributions (used by
 * the IPI characterisation experiment).
 */
class Histogram
{
  public:
    /** Buckets are [edges[i], edges[i+1]); an overflow bucket follows. */
    explicit Histogram(std::vector<std::uint64_t> edges)
        : edges_(std::move(edges)), buckets_(edges_.size() + 1, 0)
    {
        panic_if(edges_.empty(), "Histogram with no bucket edges");
    }

    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        std::size_t i = 0;
        while (i < edges_.size() && v >= edges_[i])
            ++i;
        ++buckets_[i];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /**
     * Estimate the @p p quantile (p in [0, 1]) by linear
     * interpolation within the containing bucket. The first bucket
     * is bounded below by the observed minimum and the overflow
     * bucket above by the observed maximum, so p=0 / p=1 return the
     * exact extremes.
     */
    double percentile(double p) const;

    /** Forget every sample (keeps the bucket edges). */
    void reset();

    /**
     * Fold @p other's samples into this histogram. Both must share
     * the same bucket edges. The result is exactly what sampling the
     * union multiset would have produced, so scratch histograms
     * (e.g. one per independent run) can be merged into a long-lived
     * one instead of re-registering it.
     */
    void merge(const Histogram &other);

    const std::vector<std::uint64_t> &edges() const { return edges_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

  private:
    std::vector<std::uint64_t> edges_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A named collection of counters and histograms. Components register
 * their stats once at construction; lookups after that are by
 * pointer, not name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register (or fetch) a counter by name. Pointers stay stable. */
    Counter &counter(const std::string &name);

    /**
     * Register (or fetch) a histogram by name. @p edges is only used
     * on first registration; later fetches return the existing
     * histogram unchanged. Pointers stay stable.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> edges);

    /** True if a counter of this name has been registered. */
    bool has(const std::string &name) const;

    /** True if a histogram of this name has been registered. */
    bool hasHistogram(const std::string &name) const;

    /** Value of a registered counter; 0 if never registered. */
    std::uint64_t value(const std::string &name) const;

    /** A registered histogram, or nullptr. */
    const Histogram *findHistogram(const std::string &name) const;

    /** Reset every counter and histogram. */
    void resetAll();

    /**
     * Dump one line per stat, sorted by name. Counters keep the
     * original two-token format the bench post-processing splits on:
     *
     *     group.counter VALUE
     *
     * Histogram lines are distinguishable by their "hist" marker
     * token and carry the distribution summary:
     *
     *     group.name hist count=N min=A max=B mean=C p50=D p99=E
     *         p999=F
     */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** Snapshot of all counters, for diffing before/after a phase. */
    std::map<std::string, std::uint64_t> snapshot() const;

    /** All registered counters, sorted by name. */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    /** All registered histograms, sorted by name. */
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

  private:
    std::string name_;
    // std::map keeps pointer stability under insertion and gives the
    // sorted dump order for free.
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace stramash

#endif // STRAMASH_COMMON_STATS_HH
