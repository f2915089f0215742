/**
 * @file
 * Shared helpers for the reproduction benches: table printing, the
 * standard experiment configurations from the paper, and the Reporter
 * that mirrors a bench's output into a machine-readable
 * BENCH_<name>.json (measurement points + a StatsRegistry snapshot)
 * and optionally attaches a TraceSink for Chrome-trace export.
 */

#ifndef RAID2_BENCH_BENCH_UTIL_HH
#define RAID2_BENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "raid/sim_array.hh"
#include "server/raid2_server.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::bench {

/** Print a rule + centered title for a bench section. */
void printHeader(const std::string &title, const std::string &paper_ref);

/** Print a single "name  value unit   (paper: x)" row. */
void printRow(const std::string &name, double value,
              const std::string &unit, const std::string &paper);

/** Print a series header for curve-style output. */
void printSeriesHeader(const std::vector<std::string> &cols);
void printSeriesRow(const std::vector<double> &vals);

/** The §2.3 hardware-experiment array: 24 IBM disks on 4 Cougars. */
raid2::server::Raid2Server::Config hwConfig();

/** The §3.4 LFS experiment array: 16 disks, 64 KB stripe, 960 KB
 *  segments. */
raid2::server::Raid2Server::Config lfsConfig();

/**
 * Worker count for parallel sweeps: the RAID2_BENCH_THREADS
 * environment variable when set (>= 1; 1 forces the serial path),
 * otherwise std::thread::hardware_concurrency().
 */
unsigned benchThreads();

/**
 * Run the sweep body @p fn for indices 0..n-1 across a pool of
 * benchThreads() threads and return the per-index result rows in index
 * order.
 *
 * Each call builds and tears down its own simulated system (the kernel
 * has no global singleton), so measurements are independent and every
 * simulation is deterministic; the returned rows — and therefore
 * everything printed or serialized from them — are bit-identical to a
 * serial run.  Callers emit the rows after the join, keeping output
 * order fixed.  @p fn must not touch shared mutable state.
 */
std::vector<std::vector<double>> runSweepParallel(
    std::size_t n,
    const std::function<std::vector<double>(std::size_t)> &fn);

/**
 * Bench result reporter.
 *
 * Wraps the table printers above and records everything they print;
 * with the "--json" flag the destructor writes "BENCH_<name>.json" in
 * the working directory with the recorded points/series plus any
 * registry snapshot taken during the run.
 *
 * Tracing is enabled with "--trace" (default path TRACE_<name>.json)
 * or "--trace=<path>"; attach a sink to the measured run's event queue
 * with makeTracer() and the destructor writes the Chrome trace_event
 * file.
 */
class Reporter
{
  public:
    /** Parses --json / --trace[=path] out of argv (leaves the rest). */
    Reporter(std::string name, int argc = 0, char **argv = nullptr);
    ~Reporter();

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    bool jsonEnabled() const { return _json; }
    bool traceEnabled() const { return !_tracePath.empty(); }
    const std::string &tracePath() const { return _tracePath; }

    /** @{ Print-and-record versions of the table helpers. */
    void header(const std::string &title, const std::string &paper_ref);
    void row(const std::string &name, double value,
             const std::string &unit, const std::string &paper);
    void seriesHeader(const std::vector<std::string> &cols);
    void seriesRow(const std::vector<double> &vals);
    /** @} */

    /** Record a point without printing it (for a bench that prints
     *  its own table). */
    void record(const std::string &name, double value,
                const std::string &unit, const std::string &paper);

    /**
     * Serialize @p reg into the report now (benches tear their
     * simulated systems down per measurement, so the snapshot cannot
     * wait for the destructor).  The last snapshot wins.
     */
    void snapshotRegistry(const sim::StatsRegistry &reg);

    /**
     * When tracing is enabled, create a TraceSink (owned by the
     * Reporter), attach it to @p eq and return it; the destructor
     * writes the trace file.  Returns nullptr when tracing is off.
     */
    sim::TraceSink *makeTracer(sim::EventQueue &eq);

    /** Path the destructor will write ("BENCH_<name>.json"). */
    std::string jsonPath() const { return "BENCH_" + _name + ".json"; }

  private:
    struct Point
    {
        std::string name;
        double value;
        std::string unit;
        std::string paper;
    };

    void writeJson() const;

    std::string _name;
    bool _json = false;
    std::string _tracePath;

    std::string _title;
    std::string _paperRef;
    std::vector<Point> _points;
    std::vector<std::string> _seriesCols;
    std::vector<std::vector<double>> _seriesRows;
    std::string _registryJson; // compact, spliced into the report
    std::unique_ptr<sim::TraceSink> _tracer;
};

} // namespace raid2::bench

#endif // RAID2_BENCH_BENCH_UTIL_HH
