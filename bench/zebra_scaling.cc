/**
 * @file
 * Zebra across RAID-II servers (§5.2).
 *
 * "Its use with RAID-II would provide a mechanism for striping high-
 * bandwidth file accesses over multiple network connections, and
 * therefore across multiple XBUS boards."  This bench measures a
 * single client's log bandwidth as servers are added, plus the cost
 * of reading while one server is down.
 */

#include <memory>
#include <vector>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "zebra/zebra_volume.hh"

using namespace raid2;

namespace {

struct Point
{
    double write_mbs;
    double read_mbs;
    double degraded_read_mbs;
};

Point
run(unsigned nservers)
{
    sim::EventQueue eq;
    std::vector<std::unique_ptr<server::Raid2Server>> servers;
    std::vector<server::Raid2Server *> ptrs;
    for (unsigned i = 0; i < nservers; ++i) {
        auto cfg = bench::lfsConfig();
        cfg.fsDeviceBytes = 96ull * 1024 * 1024;
        servers.push_back(std::make_unique<server::Raid2Server>(
            eq, "srv" + std::to_string(i), cfg));
        ptrs.push_back(servers.back().get());
    }
    zebra::ZebraVolume::Config zcfg;
    zcfg.fragmentBytes = 512 * sim::KiB;
    zebra::ZebraVolume vol(eq, ptrs, zcfg);

    Point pt{};
    const std::uint64_t total = 32ull * 1024 * 1024;

    // Write: stream the client log out.
    {
        std::vector<std::uint8_t> chunk(2 * 1024 * 1024, 0x77);
        const sim::Tick t0 = eq.now();
        std::uint64_t sent = 0;
        while (sent < total) {
            bool done = false;
            vol.append({chunk.data(), chunk.size()},
                       [&] { done = true; });
            eq.runUntilDone([&] { return done; });
            sent += chunk.size();
        }
        bool flushed = false;
        vol.flush([&] { flushed = true; });
        eq.runUntilDone([&] { return flushed; });
        pt.write_mbs = sim::mbPerSec(sent, eq.now() - t0);
    }

    // Read it back.
    auto read_all = [&] {
        std::vector<std::uint8_t> buf(4 * 1024 * 1024);
        const sim::Tick t0 = eq.now();
        std::uint64_t got = 0;
        while (got < total) {
            bool done = false;
            vol.read(got, {buf.data(), buf.size()}, [&] { done = true; });
            eq.runUntilDone([&] { return done; });
            got += buf.size();
        }
        return sim::mbPerSec(got, eq.now() - t0);
    };
    pt.read_mbs = read_all();
    vol.failServer(nservers / 2);
    pt.degraded_read_mbs = read_all();
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("zebra_scaling", argc, argv);
    rep.header("Zebra: one client's log striped across N "
               "RAID-II servers (§5.2)",
               "paper: striping across XBUS boards scales "
               "client bandwidth; parity survives a loss");

    rep.seriesHeader(
        {"servers", "write MB/s", "read MB/s", "degraded MB/s"});
    for (unsigned n : {2u, 3u, 4u, 6u, 8u}) {
        const auto pt = run(n);
        rep.seriesRow({static_cast<double>(n), pt.write_mbs, pt.read_mbs,
                       pt.degraded_read_mbs});
    }

    std::printf("\n  Expected shape: write bandwidth ~ (N-1)/N of N "
                "servers' aggregate\n  (client computes parity); reads "
                "scale similarly; degraded reads pay the\n  "
                "reconstruction fan-out.\n");
    return 0;
}
