/**
 * @file
 * Table 1: peak sequential read/write bandwidth of one XBUS board.
 *
 * "Table 1 shows peak performance of the system when sequential read
 * and write operations are performed.  These measurements were
 * obtained using the four Cougar boards attached to the XBUS VME
 * interfaces, and in addition, using a fifth Cougar board attached to
 * the XBUS VME control bus interface.  For requests of size 1.6
 * megabytes, read performance is 31 megabytes/second, compared to 23
 * megabytes/second for writes." (§2.3.)
 *
 * The fifth controller cannot be striped into the main array (the
 * slow control link would throttle every stripe); it runs its own
 * concurrent sequential stream through the control-bus port, which is
 * where the extra ~3 MB/s of read bandwidth (and almost nothing on
 * writes) comes from: 31 = 4 x 6.9 + 3.4, and 23 ~= 4 x 5.9 x 23/24.
 */

#include <memory>

#include "bench_util.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

/** A fifth Cougar with its disks streaming through the control link. */
struct AuxController
{
    scsi::CougarController cougar;
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<std::unique_ptr<scsi::DiskChannel>> channels;
    std::uint64_t bytesMoved = 0;
    bool stop = false;

    AuxController(sim::EventQueue &eq, xbus::XbusBoard &board,
                  bool writes)
        : cougar(eq, "aux.cougar")
    {
        for (unsigned i = 0; i < 6; ++i) {
            disks.push_back(std::make_unique<disk::DiskModel>(
                eq, "aux.disk" + std::to_string(i), disk::ibm0661()));
            auto &str = cougar.string(i / 3);
            str.attach(disks.back().get());
            channels.push_back(std::make_unique<scsi::DiskChannel>(
                *disks.back(), str, cougar));
        }
        // Keep all six disks streaming sequentially for the whole run.
        for (unsigned i = 0; i < 6; ++i)
            stream(eq, board, i, 0, writes);
    }

    void
    stream(sim::EventQueue &eq, xbus::XbusBoard &board, unsigned d,
           std::uint64_t pos, bool writes)
    {
        if (stop || pos + 64 * sim::KB > disks[d]->capacityBytes())
            return;
        auto cont = [this, &eq, &board, d, pos, writes] {
            bytesMoved += 64 * sim::KB;
            stream(eq, board, d, pos + 64 * sim::KB, writes);
        };
        if (writes) {
            channels[d]->write(
                pos, 64 * sim::KB,
                {sim::Stage(board.memory()),
                 sim::Stage(board.hostLink(), cal::controlLinkWriteMBs)},
                cont);
        } else {
            channels[d]->read(
                pos, 64 * sim::KB,
                {sim::Stage(board.hostLink(), cal::controlLinkReadMBs),
                 sim::Stage(board.memory())},
                cont);
        }
    }
};

double
measure(bool writes)
{
    sim::EventQueue eq;
    auto cfg = bench::hwConfig();
    server::Raid2Server srv(eq, "srv", cfg);

    const std::uint64_t stripe = srv.array().layout().stripeDataBytes();

    AuxController aux(eq, srv.board(), writes);

    workload::ClosedLoopRunner::Config wcfg;
    wcfg.processes = 3; // keep the array busy back-to-back
    // ~1.6 MB requests, stripe-aligned so sequential writes tile the
    // array in full stripes (the peak-bandwidth case of §3.1).
    wcfg.requestBytes = stripe;
    wcfg.regionBytes = stripe * wcfg.processes * 32;
    wcfg.sequential = true;
    wcfg.sharedCursor = true; // back-to-back requests, one stream
    wcfg.totalOps = 60;
    wcfg.warmupOps = 6;

    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        if (writes)
            srv.hwWrite(off, len, std::move(done));
        else
            srv.hwRead(off, len, std::move(done));
    };
    const sim::Tick t0 = eq.now();
    auto res = workload::ClosedLoopRunner::run(eq, wcfg, op);
    aux.stop = true;
    // Attribute the aux stream's bytes over the same wall-clock span.
    const double aux_mbs =
        sim::mbPerSec(aux.bytesMoved, eq.now() - t0);
    // Let the aux transfers still in flight finish before the world
    // is torn down: a pipeline frees itself only when it completes.
    eq.run();
    return res.throughputMBs() + aux_mbs;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep("table1_seq_peak", argc, argv);
    rep.header("Table 1: peak sequential performance (one XBUS "
               "board, 4+1 controllers)",
               "paper: sequential reads 31 MB/s, sequential "
               "writes 23 MB/s");

    const double rd = measure(false);
    const double wr = measure(true);
    rep.row("Sequential reads", rd, "MB/s", "31");
    rep.row("Sequential writes", wr, "MB/s", "23");
    std::printf("\n  Expected shape: reads beat writes (parity traffic "
                "+ slower VME write\n  direction); reads gain ~3 MB/s "
                "from the fifth controller, writes almost\n  nothing "
                "through the slow control link.\n");
    return 0;
}
