/**
 * @file
 * Workload generators for benches and examples.
 *
 * Two shapes cover the paper's experiments: closed-loop fixed-size
 * request streams ("a single process issued requests to the disk
 * array", "a separate process issuing random I/O operations to each
 * disk", §2.3/§3.4) and open-loop periodic streams (the video
 * playback service RAID-II was slated for, §5.1).
 */

#ifndef RAID2_WORKLOAD_GENERATORS_HH
#define RAID2_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <functional>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace raid2::workload {

/** An asynchronous byte-range operation under test. */
using Op =
    std::function<void(std::uint64_t off, std::uint64_t len, sim::Event done)>;

/** Aggregate results of a run. */
struct Results
{
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    sim::Tick elapsed = 0;
    sim::Distribution latencyMs;

    double
    throughputMBs() const
    {
        return sim::mbPerSec(bytes, elapsed);
    }
    double
    opsPerSec() const
    {
        return elapsed ? static_cast<double>(ops) /
                             sim::ticksToSec(elapsed)
                       : 0.0;
    }
};

/**
 * N logical processes, each keeping exactly one request outstanding.
 * Offsets are uniform-random aligned multiples of @c alignBytes within
 * the region, or per-process sequential partitions.
 */
class ClosedLoopRunner
{
  public:
    struct Config
    {
        unsigned processes = 1;
        std::uint64_t requestBytes = 4096;
        std::uint64_t regionBytes = 0;  // required
        std::uint64_t alignBytes = 0;   // 0 -> align to requestBytes
        bool sequential = false;
        /** Sequential mode: all processes pull from one shared cursor
         *  (back-to-back async requests) instead of per-process
         *  partitions. */
        bool sharedCursor = false;
        std::uint64_t totalOps = 100;   // across all processes
        std::uint64_t seed = 0x524149;
        /** Optional settling ops excluded from the statistics. */
        std::uint64_t warmupOps = 0;
    };

    /** Drive @p op until completion; runs the event queue. */
    static Results run(sim::EventQueue &eq, const Config &cfg,
                       const Op &op);
};

/** Open-loop periodic reader streams (video playback). */
class StreamRunner
{
  public:
    struct Config
    {
        unsigned streams = 4;
        std::uint64_t frameBytes = 256 * 1024;
        sim::Tick framePeriod = sim::msToTicks(33.3); // ~30 fps
        std::uint64_t framesPerStream = 100;
        /** Byte distance between consecutive streams' regions. */
        std::uint64_t streamStrideBytes = 64ull * 1024 * 1024;
    };

    struct StreamResults
    {
        std::uint64_t frames = 0;
        std::uint64_t deadlineMisses = 0;
        sim::Distribution frameLatencyMs;
        sim::Tick elapsed = 0;

        double
        missRate() const
        {
            return frames ? static_cast<double>(deadlineMisses) /
                                static_cast<double>(frames)
                          : 0.0;
        }
    };

    static StreamResults run(sim::EventQueue &eq, const Config &cfg,
                             const Op &op);
};

} // namespace raid2::workload

#endif // RAID2_WORKLOAD_GENERATORS_HH
