/**
 * @file
 * Shared vocabulary of mtvbench: the clock every span and
 * end-to-end figure is read from, sample statistics, and the outcome
 * record one workload run fills in.
 */

#ifndef MTVBENCH_BENCH_HH
#define MTVBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace bench
{

/** Seconds on the steady clock (zero point is arbitrary). */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The q-quantile of @p values, linearly interpolated between closest
 * ranks (Python's statistics.quantiles "inclusive" method). Infinite
 * entries (failed requests) sort last. 0 for an empty sample.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    if (std::isinf(values[hi]))
        return values[hi];
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

inline double
sum(const std::vector<double> &values)
{
    double total = 0;
    for (double v : values)
        total += v;
    return total;
}

/** What one workload run reports: operation tallies and metrics. */
struct Outcome
{
    /** Operations attempted: sweep streams, passes and requests. */
    uint64_t attempted = 0;
    /** Failed operations: an error line, a broken or short stream, a
     *  missing point or a digest mismatch. */
    uint64_t failed = 0;
    /** Other correctness checks (fixture hygiene, pinned digests). */
    bool checksOk = true;
    /** name -> (value, unit), printed in the result line. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Figures under their long names (cold_sweep_s, error_rate, ...),
     *  printed on an informational line. */
    std::map<std::string, double> info;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count one operation, failed or not. */
    void
    count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

} // namespace bench

#endif // MTVBENCH_BENCH_HH
