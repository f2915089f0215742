/**
 * @file
 * Ablation B: scaling by adding XBUS boards (§2.1.2).
 *
 * "The bandwidth of the RAID-II storage server can be scaled by adding
 * XBUS controller boards to a host workstation. ... Eventually, adding
 * XBUS controllers to a host workstation will saturate the host's CPU,
 * since the host manages all disk and network transfers."
 *
 * Each board serves 256 KB reads; every request costs host CPU for
 * command processing.  Aggregate bandwidth grows linearly until the
 * host CPU saturates.
 */

#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "host/host_workstation.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace raid2;

namespace {

struct ScalePoint
{
    double total_mbs;
    double host_util;
};

ScalePoint
run(unsigned boards)
{
    sim::EventQueue eq;
    host::HostWorkstation host(eq, "host");

    std::vector<std::unique_ptr<server::Raid2Server>> servers;
    for (unsigned b = 0; b < boards; ++b) {
        servers.push_back(std::make_unique<server::Raid2Server>(
            eq, "srv" + std::to_string(b), bench::hwConfig()));
    }

    const std::uint64_t req = 256 * sim::KB;
    const std::uint64_t ops_per_board = 300;
    const unsigned procs_per_board = 4;
    sim::Random rng(11);
    std::uint64_t issued_ops = 0;
    std::uint64_t done_ops = 0;
    const std::uint64_t total_ops = ops_per_board * boards;
    const std::uint64_t region = 1ull * 1024 * 1024 * 1024;

    // Exactly total_ops are issued (and charged to the host), so every
    // op's host time falls inside the measured window.
    std::function<void(unsigned)> issue = [&](unsigned b) {
        if (issued_ops == total_ops)
            return;
        ++issued_ops;
        const std::uint64_t off =
            rng.below(region / req) * req;
        // The host sets up every transfer (§2.1.2), then the board
        // moves the data without it.
        host.chargeIoCompletion(false, [&, b, off] {
            servers[b]->hwRead(off, req, [&, b] {
                ++done_ops;
                issue(b);
            });
        });
    };
    for (unsigned b = 0; b < boards; ++b)
        for (unsigned p = 0; p < procs_per_board; ++p)
            issue(b);
    eq.runUntilDone([&] { return done_ops >= total_ops; });

    ScalePoint out;
    out.total_mbs = sim::mbPerSec(done_ops * req, eq.now());
    out.host_util = host.cpu().utilization(eq.now());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("ablation_scaling", argc, argv);
    rep.header("Ablation B: bandwidth vs number of XBUS boards",
               "paper §2.1.2: scales until the host CPU saturates");

    const std::vector<unsigned> boards = {1, 2, 4, 6, 8, 10, 12, 14};
    const auto rows = bench::runSweepParallel(
        boards.size(), [&](std::size_t i) -> std::vector<double> {
            const auto pt = run(boards[i]);
            return {static_cast<double>(boards[i]), pt.total_mbs,
                    100.0 * pt.host_util};
        });

    rep.seriesHeader({"boards", "MB/s", "host util %"});
    for (const auto &row : rows)
        rep.seriesRow(row);

    std::printf("\n  Expected shape: near-linear growth while host CPU "
                "utilization is low,\n  flattening as it approaches "
                "100%%.\n");
    return 0;
}
