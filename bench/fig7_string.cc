/**
 * @file
 * Figure 7: disk read performance vs number of disks on one SCSI
 * string.
 *
 * "Cougar string bandwidth is limited to about 3 megabytes/second,
 * less than that of three disks.  The dashed line indicates the
 * performance if bandwidth scaled linearly." (§2.3, Fig 7.)
 *
 * Each disk streams sequential reads from its own region; the string
 * saturates at the 3 MB/s bus rate.
 */

#include <functional>
#include <vector>

#include "bench_util.hh"
#include "disk/disk_model.hh"
#include "scsi/cougar_controller.hh"
#include "sim/event_queue.hh"
#include "sim/service.hh"

using namespace raid2;

int
main(int argc, char **argv)
{
    bench::Reporter rep("fig7_string", argc, argv);
    rep.header("Figure 7: read throughput vs disks on one SCSI "
               "string",
               "paper: saturates at about 3 MB/s (3.4 calibrated "
               "from Table 1); single disk well below");

    rep.seriesHeader({"disks", "MB/s", "linear MB/s"});

    const unsigned max_disks = 6;
    double single_disk_mbs = 0.0;
    for (unsigned ndisks = 1; ndisks <= max_disks; ++ndisks) {
        sim::EventQueue eq;
        scsi::CougarController cougar(eq, "cougar");
        // A fast sink stands in for the rest of the datapath so the
        // string is the only possible bottleneck.
        sim::Service sink(eq, "sink", sim::Service::Config{400.0, 0, 8});

        sim::StatsRegistry reg;
        if (ndisks == max_disks) {
            cougar.registerStats(reg, "scsi.cougar0");
            reg.setElapsed([&eq] { return eq.now(); });
            rep.makeTracer(eq);
        }

        std::vector<std::unique_ptr<disk::DiskModel>> disks;
        std::vector<std::unique_ptr<scsi::DiskChannel>> channels;
        for (unsigned i = 0; i < ndisks; ++i) {
            disks.push_back(std::make_unique<disk::DiskModel>(
                eq, "d" + std::to_string(i), disk::ibm0661()));
            cougar.string(0).attach(disks.back().get());
            channels.push_back(std::make_unique<scsi::DiskChannel>(
                *disks.back(), cougar.string(0), cougar));
            if (ndisks == max_disks)
                disks.back()->registerStats(reg,
                                            "disk." + std::to_string(i));
        }

        const std::uint64_t req = 64 * sim::KB;
        const int per_disk_ops = 40;
        std::uint64_t bytes_done = 0;
        unsigned streams_done = 0;

        std::vector<std::uint64_t> pos(ndisks);
        std::vector<int> ops(ndisks, 0);
        std::function<void(unsigned)> issue = [&](unsigned d) {
            if (ops[d] >= per_disk_ops) {
                ++streams_done;
                return;
            }
            ++ops[d];
            channels[d]->read(pos[d], req, {sim::Stage(sink)},
                              [&, d] {
                                  bytes_done += req;
                                  issue(d);
                              });
            pos[d] += req;
        };
        // Two commands outstanding per disk so the drive's media phase
        // overlaps the previous command's bus phase (read-ahead).
        for (unsigned d = 0; d < ndisks; ++d) {
            issue(d);
            issue(d);
        }
        eq.run();

        const double mbs = sim::mbPerSec(bytes_done, eq.now());
        if (ndisks == 1)
            single_disk_mbs = mbs;
        rep.seriesRow({static_cast<double>(ndisks), mbs,
                       single_disk_mbs * ndisks});
        if (ndisks == max_disks) {
            // EXPERIMENTS.md's headline cell, pinned by
            // experiments_check.
            rep.record("String plateau (6 disks)", mbs, "MB/s",
                       "about 3 MB/s");
            rep.snapshotRegistry(reg);
        }
    }

    std::printf("\n  Expected shape: ~1.4 MB/s for one disk, capped "
                "near 3.3 MB/s from three disks on\n");
    return 0;
}
