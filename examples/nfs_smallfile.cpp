/**
 * @file
 * The two access modes (§2.1.1, §3.3).
 *
 * "Any client request can be serviced using either access mode, but we
 * maximize utilization and performance of the high-bandwidth data path
 * if smaller requests use the Ethernet network and larger requests use
 * the HIPPI network."  This example serves the same files over both
 * paths and shows where the crossover lives: small files are fine over
 * Ethernet (standard mode, NFS-style), large files need the fast path.
 * It exits non-zero unless 4 KB is a toss-up and the fast path is at
 * least 5x ahead at 16 MB.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "config/calibration.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/raid2_server.hh"
#include "sim/event_queue.hh"

using namespace raid2;

namespace {

struct ModeResult
{
    double standard_ms;
    double fast_ms;
};

ModeResult
serveFile(std::uint64_t bytes)
{
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.topo.disksPerString = 2;
    server::Raid2Server server(eq, "srv", cfg);
    net::UltranetFabric ultranet(eq, "ultra");
    net::ClientModel client(eq, "ws");

    const auto ino = server.createFile("/file");
    std::vector<std::uint8_t> data(bytes, 0x11);
    server.fs().write(ino, 0, {data.data(), data.size()});
    server.fs().checkpoint();

    ModeResult res{};

    // Standard mode: Ethernet through the host (NFS-style).
    {
        const sim::Tick t0 = eq.now();
        bool done = false;
        server.standardRead(ino, 0, bytes,
                            [&](server::Status) { done = true; });
        eq.runUntilDone([&] { return done; });
        res.standard_ms = sim::ticksToMs(eq.now() - t0);
    }

    // High-bandwidth mode: raid_read's datapath (§3.3).  The client
    // pays its request cost and the command round trip; then array ->
    // XBUS memory -> HIPPI source -> Ultranet -> client NIC.  Through
    // RaidFileClient the front end would send reads of 64 KB or less
    // to the Ethernet, so the example calls the fast path itself.
    {
        const sim::Tick t0 = eq.now();
        bool done = false;
        client.chargeRequestCost();
        eq.scheduleIn(server::RaidFileClient::commandRtt, [&] {
            server.fileRead(ino, 0, bytes,
                            [&](server::Status) { done = true; },
                            {sim::Stage(server.board().hippiSrcPort()),
                             sim::Stage(ultranet.ring()),
                             client.rxStage()},
                            cal::hippiSetupOverhead);
        });
        eq.runUntilDone([&] { return done; });
        res.fast_ms = sim::ticksToMs(eq.now() - t0);
    }
    return res;
}

} // namespace

int
main()
{
    std::printf("Standard mode (Ethernet) vs high-bandwidth mode "
                "(HIPPI/Ultranet)\n");
    std::printf("================================================="
                "==============\n\n");
    std::printf("%10s %16s %16s %10s\n", "file KB", "Ethernet ms",
                "fast path ms", "winner");

    double ratio_4k = 0, ratio_16m = 0;
    for (std::uint64_t kb :
         {4ull, 16ull, 64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
        const auto r = serveFile(kb * sim::KB);
        const double ratio = r.standard_ms / r.fast_ms;
        const char *verdict = ratio < 0.95  ? "Ethernet"
                              : ratio < 1.3 ? "toss-up"
                                            : "HIPPI";
        std::printf("%10llu %16.2f %16.2f %10s\n",
                    (unsigned long long)kb, r.standard_ms, r.fast_ms,
                    verdict);
        if (kb == 4)
            ratio_4k = ratio;
        if (kb == 16384)
            ratio_16m = ratio;
    }

    std::printf("\nExpected: for tiny requests the two paths are "
                "comparable, so standard\nmode is preferred to keep "
                "the HIPPI path free (\u00a72.1.1 is about\n"
                "utilization, not latency); the fast path wins "
                "decisively as size grows.\n");

    if (ratio_4k < 0.95 || ratio_4k >= 1.3) {
        std::printf("FAIL: 4 KB is not a toss-up (Ethernet %.2fx the "
                    "fast path)\n",
                    ratio_4k);
        return 1;
    }
    if (ratio_16m < 5.0) {
        std::printf("FAIL: the fast path is only %.2fx ahead at 16 MB\n",
                    ratio_16m);
        return 1;
    }
    return 0;
}
