#include "sim/stats.hh"

#include <cmath>

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
