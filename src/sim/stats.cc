#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace raid2::sim {

void
Distribution::sample(double v)
{
    ++n;
    sum += v;
    sumSq += v * v;
    _min = std::min(_min, v);
    _max = std::max(_max, v);
}

void
Distribution::reset()
{
    n = 0;
    sum = sumSq = 0.0;
    _min = std::numeric_limits<double>::infinity();
    _max = -std::numeric_limits<double>::infinity();
}

double
Distribution::variance() const
{
    if (n < 2)
        return 0.0;
    double m = mean();
    double var = sumSq / static_cast<double>(n) - m * m;
    return var > 0.0 ? var : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo_, double hi_, std::size_t buckets_)
    : lo(lo_), hi(hi_), width((hi_ - lo_) / static_cast<double>(buckets_)),
      counts(buckets_, 0)
{
    if (buckets_ == 0 || hi_ <= lo_)
        panic("Histogram: bad range/bucket configuration");
}

void
Histogram::sample(double v)
{
    ++n;
    std::size_t idx;
    if (v < lo) {
        idx = 0;
    } else if (v >= hi) {
        idx = counts.size() - 1;
    } else {
        idx = static_cast<std::size_t>((v - lo) / width);
        idx = std::min(idx, counts.size() - 1);
    }
    ++counts[idx];
}

void
Histogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    n = 0;
}

double
Histogram::bucketLo(std::size_t i) const
{
    return lo + width * static_cast<double>(i);
}

double
Histogram::bucketHi(std::size_t i) const
{
    return bucketLo(i) + width;
}

double
exactQuantile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= samples.size())
        return samples.back();
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

} // namespace raid2::sim
