/**
 * @file
 * Lightweight statistics collection.
 *
 * Components expose counters and sample distributions; benches and
 * tests read them back.  Modeled loosely on gem5's stats package but
 * intentionally tiny: a counter is a plain std::uint64_t member, and
 * this file adds a sampled Distribution and a busy-time Utilization;
 * StatsRegistry (stats_registry.hh) names and dumps all three.
 */

#ifndef RAID2_SIM_STATS_HH
#define RAID2_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace raid2::sim {

class StatsRegistry; // stats_registry.hh

/** Online mean / min / max / variance over double samples. */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return n ? _min : 0.0; }
    double max() const { return n ? _max : 0.0; }
    double variance() const;
    double stddev() const;
    double total() const { return sum; }

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * Exact q-quantile (q in [0,1]) of a sample set by linear
 * interpolation between order statistics; sorts @p samples in place.
 * Returns 0 for an empty set.  Tail percentiles (p99/p999) read off
 * fixed buckets are only as good as the bucket width, so latency-curve
 * benches keep the raw samples and use this instead.
 */
double exactQuantile(std::vector<double> &samples, double q);

/**
 * Utilization tracker for a resource: accumulates busy time so a bench
 * can report fraction-busy over an interval.
 */
class Utilization
{
  public:
    /** Record the resource busy for [start, end). Overlaps allowed for
     *  multi-server resources; busy time simply accumulates. */
    void
    addBusy(Tick start, Tick end)
    {
        if (end > start)
            busyTicks += end - start;
    }

    Tick busy() const { return busyTicks; }

    double
    fraction(Tick elapsed) const
    {
        return elapsed ? static_cast<double>(busyTicks) /
                             static_cast<double>(elapsed)
                       : 0.0;
    }

    void reset() { busyTicks = 0; }

  private:
    Tick busyTicks = 0;
};

} // namespace raid2::sim

#endif // RAID2_SIM_STATS_HH
