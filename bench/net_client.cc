/**
 * @file
 * §3.4 network client performance.
 *
 * "A SPARCstation 10/51 client on the HIPPI network writes data to
 * RAID-II at 3.1 megabytes per second. ... This rather inefficient
 * [polling] implementation limits RAID-II read operations for a single
 * SPARCstation client to 3.2 megabytes/second.  In the implementation
 * currently being developed, the source board will interrupt the CPU
 * when a transfer is complete."  Also: "utilization of the Sun4/280
 * workstation due to network operations is close to zero with the
 * single SPARCstation client writing to the disk array."
 */

#include <cstdlib>
#include <functional>

#include "bench_util.hh"
#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"

using namespace raid2;

namespace {

struct ClientRun
{
    double mbs;
    double host_util;
};

ClientRun
run(bool reads, bool polling_driver, bench::Reporter *rep = nullptr)
{
    sim::EventQueue eq;
    auto cfg = bench::lfsConfig();
    server::Raid2Server srv(eq, "srv", cfg);
    net::UltranetFabric ultranet(eq, "ultra");
    server::RequestScheduler sched(eq, srv);
    net::ClientModel client(eq, "sparc10");
    server::RaidFileClient::Config pcfg;
    pcfg.pollingDriver = polling_driver;
    server::RaidFileClient lib(eq, sched, client, ultranet, pcfg);

    sim::StatsRegistry reg;
    if (rep) {
        srv.registerStats(reg);
        ultranet.registerStats(reg, "ultranet");
        reg.setElapsed([&eq] { return eq.now(); });
        rep->makeTracer(eq);
    }

    const std::uint64_t req = 1 * sim::MB;
    const std::uint64_t total = 48 * sim::MB;

    if (reads) {
        const auto ino = srv.createFile("/movie");
        std::vector<std::uint8_t> chunk(4 * sim::MB, 0x33);
        for (std::uint64_t off = 0; off < total; off += chunk.size())
            srv.fs().write(ino, off, {chunk.data(), chunk.size()});
        srv.fs().checkpoint();
    }

    std::uint64_t moved = 0;
    server::RaidFileClient::Handle handle = 0;
    bool finished = false;
    sim::Tick start = 0;

    std::function<void()> step = [&] {
        if (moved >= total) {
            finished = true;
            return;
        }
        auto cont = [&](const server::RaidFileClient::Result &r) {
            if (!r.ok()) {
                std::fprintf(stderr, "net_client: transfer failed\n");
                std::exit(1);
            }
            moved += r.bytes;
            step();
        };
        if (reads)
            lib.raidRead(handle, req, cont);
        else
            lib.raidWrite(handle, req, cont);
    };
    lib.raidOpen("/movie", !reads,
                 [&](const server::RaidFileClient::Result &r) {
                     if (!r.ok()) {
                         std::fprintf(stderr,
                                      "net_client: open failed\n");
                         std::exit(1);
                     }
                     handle = r.handle;
                     start = eq.now();
                     step();
                 });
    eq.runUntilDone([&] { return finished; });

    ClientRun out;
    out.mbs = sim::mbPerSec(moved, eq.now() - start);
    out.host_util =
        srv.host().cpu().utilization(eq.now() - start);
    if (rep)
        rep->snapshotRegistry(reg);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("net_client", argc, argv);
    rep.header("§3.4: single SPARCstation 10/51 client over the "
               "Ultranet",
               "paper: client writes 3.1 MB/s; polling-driver "
               "reads 3.2 MB/s");

    const auto wr = run(false, false);
    const auto rd_poll = run(true, true);
    const auto rd_intr = run(true, false, &rep);

    rep.row("Client write to RAID-II", wr.mbs, "MB/s", "3.1");
    rep.row("Client read, polling driver", rd_poll.mbs, "MB/s",
            "3.2");
    rep.row("Client read, interrupt driver", rd_intr.mbs,
            "MB/s", "client-NIC bound (~3.2)");
    rep.row("Host CPU utilization (writes)",
            100.0 * wr.host_util, "%", "close to zero");
    rep.row("Host CPU utilization (polling reads)",
            100.0 * rd_poll.host_util, "%", "high (busy-waits)");

    std::printf("\n  Expected shape: both directions limited to ~3 MB/s "
                "by the client's\n  copy-bound NIC path, far below the "
                "server's capability; the polling\n  read driver burns "
                "the host CPU, the interrupt driver frees it.\n");
    return 0;
}
