/**
 * @file
 * SCSI subsystem tests: string bandwidth cap, controller aggregate
 * cap, attach limits and the DiskChannel media/bus overlap.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "scsi/cougar_controller.hh"
#include "sim/event_queue.hh"

namespace {

using namespace raid2;
using sim::Tick;

struct StringRig
{
    sim::EventQueue eq;
    scsi::CougarController cougar{eq, "c0"};
    sim::Service sink{eq, "sink", sim::Service::Config{1000.0, 0, 8}};
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    std::vector<std::unique_ptr<scsi::DiskChannel>> channels;

    void
    addDisks(unsigned n, unsigned string_idx = 0)
    {
        for (unsigned i = 0; i < n; ++i) {
            disks.push_back(std::make_unique<disk::DiskModel>(
                eq, "d" + std::to_string(disks.size()),
                disk::ibm0661()));
            cougar.string(string_idx).attach(disks.back().get());
            channels.push_back(std::make_unique<scsi::DiskChannel>(
                *disks.back(), cougar.string(string_idx), cougar));
        }
    }

    /** Stream sequential 64 KB reads from every disk with two
     *  commands outstanding each (controller read-ahead), so media
     *  and bus phases overlap; returns MB/s. */
    double
    streamAll(int ops_per_disk)
    {
        std::uint64_t bytes = 0;
        std::vector<std::uint64_t> pos(channels.size(), 0);
        std::vector<int> left(channels.size(), ops_per_disk);
        std::function<void(unsigned)> issue = [&](unsigned d) {
            if (left[d]-- <= 0)
                return;
            channels[d]->read(pos[d], 64 * 1024, {sim::Stage(sink)},
                              [&, d] {
                                  bytes += 64 * 1024;
                                  issue(d);
                              });
            pos[d] += 64 * 1024;
        };
        for (unsigned d = 0; d < channels.size(); ++d) {
            issue(d);
            issue(d);
        }
        eq.run();
        return sim::mbPerSec(bytes, eq.now());
    }
};

TEST(ScsiString, AttachLimitIsSevenTargets)
{
    sim::EventQueue eq;
    scsi::ScsiString s(eq, "s0");
    std::vector<std::unique_ptr<disk::DiskModel>> disks;
    for (int i = 0; i < 7; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            eq, "d" + std::to_string(i), disk::ibm0661()));
        s.attach(disks.back().get());
    }
    EXPECT_EQ(s.disks().size(), 7u);
    // An eighth target is a configuration error -> fatal(); just
    // check we reached the limit without one.
}

TEST(ScsiString, SingleDiskIsMediaLimited)
{
    StringRig rig;
    rig.addDisks(1);
    const double mbs = rig.streamAll(40);
    // One drive can't saturate the 3 MB/s string: media rate ~1.77
    // minus command overheads.
    EXPECT_GT(mbs, 1.2);
    EXPECT_LT(mbs, 2.0);
}

TEST(ScsiString, ThreeDisksSaturateStringAtThreeMBs)
{
    StringRig rig;
    rig.addDisks(3);
    const double mbs = rig.streamAll(40);
    // Fig 7: "Cougar string bandwidth is limited to about 3 MB/s,
    // less than that of three disks."
    EXPECT_GT(mbs, 2.8);
    EXPECT_LT(mbs, cal::scsiStringMBs + 0.05);
}

TEST(Cougar, TwoStringsTogetherExceedOneString)
{
    StringRig one;
    one.addDisks(3, 0);
    const double one_string = one.streamAll(40);

    StringRig two;
    two.addDisks(3, 0);
    two.addDisks(3, 1);
    const double two_strings = two.streamAll(40);

    EXPECT_GT(two_strings, one_string * 1.7);
    // But both strings together stay under the 8 MB/s controller cap
    // (2 x 3.4 = 6.8 < 8, so strings bind here).
    EXPECT_LT(two_strings, 2 * cal::scsiStringMBs + 0.1);
}

TEST(Cougar, ControllerCapBindsWhenStringsAreFast)
{
    // Give the strings absurd bandwidth so the 8 MB/s controller cap
    // is the only limit.
    sim::EventQueue eq;
    scsi::CougarController cougar(eq, "c0");
    sim::Service src(eq, "src", sim::Service::Config{1000.0, 0, 8});
    bool done = false;
    const std::uint64_t bytes = 16 * sim::MB;
    sim::Pipeline::start({sim::Stage(src), sim::Stage(cougar.svc())},
                         bytes, 64 * 1024, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_NEAR(sim::mbPerSec(bytes, eq.now()), cal::cougarMBs, 0.2);
}

TEST(DiskChannel, ReadOverlapsMediaAndBusAcrossCommands)
{
    // With queued commands, disk i+1's media phase overlaps disk i's
    // bus phase, so total time is less than the serial sum.
    StringRig rig;
    rig.addDisks(1);
    auto &ch = *rig.channels[0];

    int done = 0;
    for (int i = 0; i < 10; ++i) {
        ch.read(std::uint64_t(i) * 64 * 1024, 64 * 1024,
                {sim::Stage(rig.sink)}, [&] { ++done; });
    }
    rig.eq.run();
    EXPECT_EQ(done, 10);

    const Tick elapsed = rig.eq.now();
    // Serial lower bound: media (~36 ms for 10 x 64 KB at 1.77 MB/s)
    // plus bus (10 x 21.3 ms) would be ~570 ms; overlap should beat
    // the serial sum comfortably.
    const Tick media_only =
        sim::transferTicks(10 * 64 * 1024, 1.7);
    const Tick bus_only = sim::transferTicks(10 * 64 * 1024, 3.0);
    EXPECT_LT(elapsed, media_only + bus_only);
}

TEST(DiskChannel, WriteCompletesAfterBothPhases)
{
    StringRig rig;
    rig.addDisks(1);
    bool done = false;
    rig.channels[0]->write(0, 64 * 1024, {sim::Stage(rig.sink)},
                           [&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    // At least the bus transfer time and at least the media transfer
    // time must have elapsed.
    EXPECT_GE(rig.eq.now(),
              sim::transferTicks(64 * 1024, cal::scsiStringMBs));
    EXPECT_GE(rig.eq.now(),
              sim::transferTicks(64 * 1024, 2.0));
}

TEST(DiskChannel, TwoDisksOnOneStringContend)
{
    StringRig rig;
    rig.addDisks(2);
    // Both disks transfer simultaneously; string serializes chunks.
    int done = 0;
    rig.channels[0]->read(0, 512 * 1024, {sim::Stage(rig.sink)},
                          [&] { ++done; });
    rig.channels[1]->read(0, 512 * 1024, {sim::Stage(rig.sink)},
                          [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    // 1 MB total through the shared string at its bus rate.
    EXPECT_GE(rig.eq.now(),
              sim::transferTicks(1024 * 1024, cal::scsiStringMBs));
}

TEST(DiskChannel, TeardownWithAFedReadInFlightFreesIt)
{
    // A read is one transfer fed a media chunk at a time.  Tear the
    // world down when some chunks are on the bus and the rest still
    // queued on the drive: the transfer and its callback must go with
    // the world (the sanitizer build's leak check sees the rest).
    auto token = std::make_shared<int>(0);
    bool fired = false;
    {
        StringRig rig;
        rig.addDisks(1);
        rig.channels[0]->read(0, 512 * 1024, {sim::Stage(rig.sink)},
                              [token, &fired] { fired = true; });
        rig.eq.runUntil(sim::msToTicks(60));
        EXPECT_FALSE(rig.disks[0]->idle());
        EXPECT_GT(rig.cougar.svc().requests(), 0u);
        EXPECT_GT(token.use_count(), 1);
    }
    EXPECT_FALSE(fired);
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
