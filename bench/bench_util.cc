#include "bench_util.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/event_queue.hh"
#include "sim/json.hh"

namespace raid2::bench {

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n");
    std::printf("====================================================="
                "=================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(%s)\n", paper_ref.c_str());
    std::printf("====================================================="
                "=================\n");
}

void
printRow(const std::string &name, double value, const std::string &unit,
         const std::string &paper)
{
    std::printf("  %-38s %8.2f %-10s paper: %s\n", name.c_str(), value,
                unit.c_str(), paper.c_str());
}

void
printSeriesHeader(const std::vector<std::string> &cols)
{
    std::printf("  ");
    for (const auto &c : cols)
        std::printf("%14s", c.c_str());
    std::printf("\n");
}

void
printSeriesRow(const std::vector<double> &vals)
{
    std::printf("  ");
    for (double v : vals)
        std::printf("%14.2f", v);
    std::printf("\n");
}

raid2::server::Raid2Server::Config
hwConfig()
{
    raid2::server::Raid2Server::Config cfg;
    cfg.layout.level = raid::RaidLevel::Raid5;
    cfg.layout.stripeUnitBytes = cal::lfsStripeUnitBytes; // 64 KB
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 3; // 24 disks (§2.2)
    cfg.topo.profile = &disk::ibm0661();
    cfg.withFs = false;
    // The hardware experiments keep the whole request's disk commands
    // in flight while HIPPI streams behind them.
    cfg.pipelineDepth = 8;
    return cfg;
}

raid2::server::Raid2Server::Config
lfsConfig()
{
    raid2::server::Raid2Server::Config cfg;
    cfg.layout.level = raid::RaidLevel::Raid5;
    cfg.layout.stripeUnitBytes = cal::lfsStripeUnitBytes;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 2; // 16 disks (§3.4)
    cfg.topo.profile = &disk::ibm0661();
    cfg.withFs = true;
    // "several pipeline processes issuing read requests" (§3.3)
    cfg.pipelineDepth = 8;
    return cfg;
}

unsigned
benchThreads()
{
    if (const char *env = std::getenv("RAID2_BENCH_THREADS");
        env && *env) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::vector<std::vector<double>>
runSweepParallel(std::size_t n,
                 const std::function<std::vector<double>(std::size_t)> &fn)
{
    std::vector<std::vector<double>> results(n);
    const std::size_t nthreads =
        std::min<std::size_t>(benchThreads(), n != 0 ? n : 1);
    if (nthreads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }
    // Work stealing off a shared counter: sweep points have wildly
    // different costs (a 20 MB LFS read vs a 16 KB one), so static
    // partitioning would idle most of the pool.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) {
        pool.emplace_back([&results, &next, &fn, n] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                results[i] = fn(i);
            }
        });
    }
    for (auto &th : pool)
        th.join();
    return results;
}

// ---------------------------------------------------------------------
// Reporter
// ---------------------------------------------------------------------

Reporter::Reporter(std::string name, int argc, char **argv)
    : _name(std::move(name))
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            _json = true;
        } else if (arg == "--trace") {
            _tracePath = "TRACE_" + _name + ".json";
        } else if (arg.rfind("--trace=", 0) == 0) {
            _tracePath = arg.substr(std::strlen("--trace="));
        }
    }
}

Reporter::~Reporter()
{
    if (_json)
        writeJson();
    if (_tracer && traceEnabled()) {
        if (_tracer->writeChromeTrace(_tracePath))
            std::printf("\n  trace written to %s\n", _tracePath.c_str());
        else
            std::fprintf(stderr, "  could not write trace to %s\n",
                         _tracePath.c_str());
    }
}

void
Reporter::header(const std::string &title, const std::string &paper_ref)
{
    _title = title;
    _paperRef = paper_ref;
    printHeader(title, paper_ref);
}

void
Reporter::row(const std::string &name, double value,
              const std::string &unit, const std::string &paper)
{
    record(name, value, unit, paper);
    printRow(name, value, unit, paper);
}

void
Reporter::record(const std::string &name, double value,
                 const std::string &unit, const std::string &paper)
{
    _points.push_back(Point{name, value, unit, paper});
}

void
Reporter::seriesHeader(const std::vector<std::string> &cols)
{
    _seriesCols = cols;
    printSeriesHeader(cols);
}

void
Reporter::seriesRow(const std::vector<double> &vals)
{
    _seriesRows.push_back(vals);
    printSeriesRow(vals);
}

void
Reporter::snapshotRegistry(const sim::StatsRegistry &reg)
{
    std::ostringstream ss;
    reg.toJson(ss, /*pretty=*/false);
    _registryJson = ss.str();
}

sim::TraceSink *
Reporter::makeTracer(sim::EventQueue &eq)
{
    if (!traceEnabled())
        return nullptr;
    _tracer = std::make_unique<sim::TraceSink>(eq);
    eq.setTracer(_tracer.get());
    return _tracer.get();
}

void
Reporter::writeJson() const
{
    const std::string path = jsonPath();
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "  could not write %s\n", path.c_str());
        return;
    }
    sim::JsonWriter jw(os, /*pretty=*/true);
    jw.beginObject();
    jw.kv("bench", _name);
    jw.kv("title", _title);
    jw.kv("paper_ref", _paperRef);
    jw.key("points");
    jw.beginArray();
    for (const Point &p : _points) {
        jw.beginObject();
        jw.kv("name", p.name);
        jw.kv("value", p.value);
        jw.kv("unit", p.unit);
        jw.kv("paper", p.paper);
        jw.endObject();
    }
    jw.endArray();
    if (!_seriesCols.empty()) {
        jw.key("series");
        jw.beginObject();
        jw.key("columns");
        jw.beginArray();
        for (const auto &c : _seriesCols)
            jw.value(c);
        jw.endArray();
        jw.key("rows");
        jw.beginArray();
        for (const auto &r : _seriesRows) {
            jw.beginArray();
            for (double v : r)
                jw.value(v);
            jw.endArray();
        }
        jw.endArray();
        jw.endObject();
    }
    if (!_registryJson.empty()) {
        jw.key("registry");
        jw.rawValue(_registryJson);
    }
    jw.endObject();
    os << "\n";
    std::printf("\n  results written to %s\n", path.c_str());
}

} // namespace raid2::bench
