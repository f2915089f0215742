/**
 * @file
 * Microbenchmarks of the simulator's own primitives
 * (google-benchmark): event queue throughput, service/pipeline cost, a
 * disk read through its channel, RAID mapping, XOR parity bandwidth,
 * block checksum bandwidth, the functional LFS write path, and building
 * a server world.  These guard the simulator's performance, not the
 * paper's results.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "config/calibration.hh"
#include "disk/disk_profile.hh"
#include "fs/mem_block_device.hh"
#include "lfs/format.hh"
#include "lfs/lfs.hh"
#include "raid/parity.hh"
#include "raid/raid_layout.hh"
#include "scsi/cougar_controller.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/service.hh"
#include "xbus/xbus_board.hh"

using namespace raid2;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(static_cast<sim::Tick>(i), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

/** Lazy-cancellation stress: schedule n events, cancel every other
 *  one, then drain.  Exercises the tombstone purge path that the
 *  timeout-heavy server configurations hit. */
void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::vector<sim::EventQueue::EventId> ids(n);
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < n; ++i)
            ids[i] = eq.schedule(static_cast<sim::Tick>(i),
                                 [&] { ++sink; });
        for (int i = 0; i < n; i += 2)
            eq.cancel(ids[i]);
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(10000);

/** High-fanout cascade: every event schedules range(0) children until
 *  100k events have run.  Models completion events fanning out to
 *  per-disk continuations; the queue depth stays near the fanout
 *  factor times the frontier. */
void
BM_EventQueueFanout(benchmark::State &state)
{
    const int fanout = static_cast<int>(state.range(0));
    constexpr std::uint64_t total = 100000;
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t spawned = 1;
        std::function<void()> node = [&] {
            for (int c = 0; c < fanout && spawned < total; ++c) {
                ++spawned;
                eq.scheduleIn(static_cast<sim::Tick>(1 + c), node);
            }
        };
        eq.schedule(0, node);
        eq.run();
        benchmark::DoNotOptimize(spawned);
    }
    state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_EventQueueFanout)->Arg(4)->Arg(32);

/** One of range(0) self-rescheduling streams, each with its own
 *  period, until 100k events have run. */
struct IntervalStream
{
    static constexpr std::uint64_t total = 100000;

    sim::EventQueue *eq;
    std::uint64_t *fired;
    sim::Tick period;

    void
    operator()() const
    {
        if (++*fired < total)
            eq->scheduleIn(period, *this);
    }
};

/** The repository benchmark's traffic shape: every stream (a service
 *  station's completions, an arrival generator) is in time order, but
 *  streams of widely spread periods interleave, so most schedules land
 *  before the latest queued tick (66 %, 94 % and 98 % of them at 4, 32
 *  and 512 streams).  The queue holds range(0) events throughout. */
void
BM_EventQueueInterleaved(benchmark::State &state)
{
    const auto streams = static_cast<sim::Tick>(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        fired = 0;
        for (sim::Tick i = 0; i < streams; ++i)
            eq.schedule(i, IntervalStream{&eq, &fired, 1000 + 997 * i});
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueInterleaved)->Arg(4)->Arg(32)->Arg(512);

void
BM_ServiceSubmit(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        sim::Service svc(eq, "svc", sim::Service::Config{40.0, 0, 1});
        for (int i = 0; i < 1000; ++i)
            svc.submit(4096, nullptr);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ServiceSubmit);

void
BM_PipelineChunked(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        sim::Service a(eq, "a", sim::Service::Config{40.0, 0, 1});
        sim::Service b(eq, "b", sim::Service::Config{40.0, 0, 1});
        bool done = false;
        sim::Pipeline::start({&a, &b}, 10 * sim::MB, 16 * 1024,
                             [&] { done = true; });
        eq.run();
        benchmark::DoNotOptimize(done);
    }
}
BENCHMARK(BM_PipelineChunked);

/** One warm 64 KB read per iteration through the path of every server
 *  world's disk reads: drive -> SCSI string -> Cougar -> VME port ->
 *  XBUS memory, each 16 KB media chunk fed into one transfer as the
 *  drive buffers it.  Reports the events each command dispatches. */
void
BM_DiskChannelRead(benchmark::State &state)
{
    constexpr std::uint64_t bytes = 64 * 1024;
    sim::EventQueue eq;
    xbus::XbusBoard board(eq, "xbus");
    scsi::CougarController cougar(eq, "c0");
    disk::DiskModel drive(eq, "d0", disk::ibm0661());
    cougar.string(0).attach(&drive);
    scsi::DiskChannel channel(drive, cougar.string(0), cougar);
    const std::vector<sim::Stage> downstream = board.diskToMemory(0);
    const std::uint64_t span = drive.capacityBytes() / bytes * bytes;
    std::uint64_t off = 0;
    bool done = false;
    const auto read = [&] {
        done = false;
        channel.read(off, bytes, downstream, [&done] { done = true; });
        eq.run();
        off = (off + bytes) % span;
    };
    read();
    const std::uint64_t before = eq.executed();
    for (auto _ : state)
        read();
    benchmark::DoNotOptimize(done);
    state.counters["events_per_cmd"] =
        static_cast<double>(eq.executed() - before) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_DiskChannelRead);

void
BM_RaidMapRange(benchmark::State &state)
{
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 24;
    cfg.stripeUnitBytes = 64 * 1024;
    raid::RaidLayout layout(cfg, 320ull * 1024 * 1024);
    std::uint64_t off = 0;
    for (auto _ : state) {
        auto extents = layout.mapRange(off % (1ull << 30), sim::MB);
        benchmark::DoNotOptimize(extents.data());
        off += 1234567;
    }
}
BENCHMARK(BM_RaidMapRange);

void
BM_ParityXor(benchmark::State &state)
{
    std::vector<std::uint8_t> dst(1 << 20, 1), src(1 << 20, 2);
    for (auto _ : state) {
        raid::xorInto(dst.data(), src.data(), dst.size());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(state.iterations() * dst.size());
}
BENCHMARK(BM_ParityXor);

constexpr std::size_t checksumBlockBytes = 4096, checksumBlocks = 240;

/** One 960 KB segment of 240 4 KB payload blocks. */
std::vector<std::uint8_t>
checksumSegment()
{
    std::vector<std::uint8_t> seg(checksumBlocks * checksumBlockBytes);
    for (std::size_t i = 0; i < seg.size(); ++i)
        seg[i] = static_cast<std::uint8_t>(i * 131 + i / checksumBlockBytes);
    return seg;
}

/** The segment writer's checksum pass: the segment through
 *  lfs::blockChecksums (sixteen blocks per pass where the CPU has
 *  AVX-512). */
void
BM_BlockChecksum(benchmark::State &state)
{
    const std::vector<std::uint8_t> seg = checksumSegment();
    std::vector<std::uint64_t> sums(checksumBlocks);
    for (auto _ : state) {
        lfs::blockChecksums(seg.data(), checksumBlocks, checksumBlockBytes,
                            sums.data());
        benchmark::DoNotOptimize(sums.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * seg.size());
}
BENCHMARK(BM_BlockChecksum);

/** The same segment one block at a time through the scalar
 *  lfs::blockChecksum, the reference BM_BlockChecksum is measured
 *  against. */
void
BM_BlockChecksumScalar(benchmark::State &state)
{
    const std::vector<std::uint8_t> seg = checksumSegment();
    std::vector<std::uint64_t> sums(checksumBlocks);
    for (auto _ : state) {
        for (std::size_t i = 0; i < checksumBlocks; ++i)
            sums[i] = lfs::blockChecksum(
                {seg.data() + i * checksumBlockBytes, checksumBlockBytes});
        benchmark::DoNotOptimize(sums.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * seg.size());
}
BENCHMARK(BM_BlockChecksumScalar);

/** The functional write path alone: 512 KB Lfs::writes over a mapped
 *  8 MB region of one file, then a sync, with the cleaner on.  The
 *  device and file system are built once and the region is mapped by
 *  an untimed first pass, so no iteration times world construction.
 *  Arg: the region's first file offset.  0 crosses the direct, single-
 *  and double-indirect ranges; 16 MB is double-indirect blocks only. */
void
BM_LfsWritePath(benchmark::State &state)
{
    constexpr std::uint64_t region = 8 * sim::MiB;
    constexpr std::uint64_t chunk = 512 * sim::KiB;
    const auto base = static_cast<std::uint64_t>(state.range(0));
    fs::MemBlockDevice dev(4096, 16384); // 64 MB
    lfs::Lfs::format(dev);
    lfs::Lfs fs(dev);
    fs.setAutoClean(true);
    const auto ino = fs.create("/f");
    std::vector<std::uint8_t> buf(chunk, 0x5a);
    auto overwrite = [&] {
        for (std::uint64_t off = 0; off < region; off += chunk)
            fs.write(ino, base + off, {buf.data(), buf.size()});
        fs.sync();
    };
    overwrite();
    for (auto _ : state)
        overwrite();
    benchmark::DoNotOptimize(fs.stats().segmentsWritten);
    state.SetBytesProcessed(state.iterations() * region);
}
BENCHMARK(BM_LfsWritePath)->ArgName("offset")->Arg(0)->Arg(16 << 20);

/** Build and destroy the §3.4 server: RAID-5 on 16 disks under a
 *  256 MB LFS, the repository benchmark's world.  With integrity on,
 *  the file system sits on a 16-disk functional twin instead of one
 *  memory device. */
void
buildSection34Server(bool integrity)
{
    server::Raid2Server::Config cfg;
    cfg.layout.level = raid::RaidLevel::Raid5;
    cfg.layout.stripeUnitBytes = cal::lfsStripeUnitBytes;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 2;
    cfg.topo.profile = &disk::ibm0661();
    cfg.withFs = true;
    cfg.fsDeviceBytes = 256 * sim::MiB;
    cfg.pipelineDepth = 8;
    cfg.withIntegrity = integrity;
    sim::EventQueue eq;
    server::Raid2Server srv(eq, "srv", cfg);
    benchmark::DoNotOptimize(srv.fs().stats().checkpoints);
}

/** Each world on this thread adopts the stores the last one freed;
 *  an untimed first build fills the pool. */
void
BM_ServerBuildRecycled(benchmark::State &state)
{
    buildSection34Server(state.range(0) != 0);
    for (auto _ : state)
        buildSection34Server(state.range(0) != 0);
}
BENCHMARK(BM_ServerBuildRecycled)
    ->ArgName("integrity")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Each world on a new thread, whose pool starts empty.  The work is
 *  off the benchmark thread, so both variants report wall time. */
void
BM_ServerBuildFresh(benchmark::State &state)
{
    for (auto _ : state)
        std::thread(buildSection34Server, state.range(0) != 0).join();
}
BENCHMARK(BM_ServerBuildFresh)
    ->ArgName("integrity")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Wall-clock kernel throughput over @p streams interleaved streams,
 *  BM_EventQueueInterleaved's shape (the repository benchmark's):
 *  repeat rounds of ~100k events for ~200 ms and report events/sec. */
double
kernelEventsPerSec(sim::Tick streams)
{
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    std::uint64_t processed = 0;
    std::chrono::duration<double> elapsed{};
    do {
        sim::EventQueue eq;
        std::uint64_t fired = 0;
        for (sim::Tick i = 0; i < streams; ++i)
            eq.schedule(i, IntervalStream{&eq, &fired, 1000 + 997 * i});
        eq.run();
        processed += fired;
        elapsed = clock::now() - t0;
    } while (elapsed.count() < 0.2);
    return static_cast<double>(processed) / elapsed.count();
}

/** The console reporter, keeping the checksum kernels' rates for the
 *  JSON report. */
class ChecksumRates : public benchmark::ConsoleReporter
{
  public:
    ChecksumRates() : ConsoleReporter(OO_None) {}

    /** (benchmark name, bytes per second), in the order run. */
    std::vector<std::pair<std::string, double>> rates;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            const auto it = r.counters.find("bytes_per_second");
            if (r.run_type == Run::RT_Iteration && !r.error_occurred &&
                r.benchmark_name().rfind("BM_BlockChecksum", 0) == 0 &&
                it != r.counters.end())
                rates.emplace_back(r.benchmark_name(), it->second.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("micro_sim", argc, argv);

    // Drop the Reporter's flags before handing argv to
    // google-benchmark, which rejects unknown arguments.
    std::vector<char *> bargs;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (i > 0 && (a == "--json" || a == "--trace" ||
                      a.rfind("--trace=", 0) == 0))
            continue;
        bargs.push_back(argv[i]);
    }
    int bargc = static_cast<int>(bargs.size());
    benchmark::Initialize(&bargc, bargs.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, bargs.data()))
        return 1;
    ChecksumRates console;
    benchmark::RunSpecifiedBenchmarks(&console);
    benchmark::Shutdown();

    // Wall-clock events/sec over several numbers of interleaved
    // streams (the queue's depth); with --json the series lands in
    // BENCH_micro_sim.json alongside commit history.
    rep.header("Simulation kernel wall-clock throughput",
               "repo microbenchmark; guards simulator speed, not a "
               "paper figure");

    // Frozen baselines of the previous std::map-based kernel
    // (RelWithDebInfo, machine that last touched the kernel), kept in
    // the report so regressions against the rewrite are visible.
    rep.row("baseline(map) ScheduleRun/1000", 10.72, "M/s",
            "higher is better");
    rep.row("baseline(map) ScheduleRun/10000", 9.23, "M/s",
            "higher is better");
    rep.row("baseline(map) ServiceSubmit", 58.09, "M/s",
            "higher is better");
    rep.row("baseline(map) PipelineChunked", 181.4, "us",
            "lower is better");
    // The checksum kernels' measured rates, when the filter ran them.
    for (const auto &[name, bytesPerSec] : console.rates)
        rep.row(name, bytesPerSec / (1ull << 30), "GiB/s",
                name == "BM_BlockChecksum"
                    ? "blockChecksums; vector kernel where the CPU has "
                      "AVX-512"
                    : "scalar blockChecksum per block");

    rep.seriesHeader({"streams", "Mevents/s"});
    for (const sim::Tick streams : {4, 32, 512, 4096})
        rep.seriesRow({static_cast<double>(streams),
                       kernelEventsPerSec(streams) / 1e6});
    return 0;
}
