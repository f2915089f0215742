/**
 * @file
 * Block-device layer tests: one contract suite that every production
 * device passes (round trips, zero-length extents, bad-extent panics,
 * block counters), then the MemBlockDevice basics, FaultDevice
 * crash/tear semantics, HookBlockDevice observation, and
 * ArrayBlockDevice over real RAID parity.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "fs/array_block_device.hh"
#include "fs/fault_device.hh"
#include "fs/mem_block_device.hh"
#include "integrity/verifying_device.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;

constexpr std::uint32_t kBs = 4096;
constexpr std::uint64_t kBlocks = 64;

/** Wrap-around bait: bno + this overflows a naive "off + len" check. */
constexpr std::uint64_t kWrapCount =
    std::numeric_limits<std::uint64_t>::max() - 3;

std::vector<std::uint8_t>
block(std::uint8_t fill, std::size_t n = 4096)
{
    return std::vector<std::uint8_t>(n, fill);
}

/** RAID-5 over 5 disks, one block per stripe unit. */
raid::LayoutConfig
raid5Layout()
{
    raid::LayoutConfig cfg;
    cfg.level = raid::RaidLevel::Raid5;
    cfg.numDisks = 5;
    cfg.stripeUnitBytes = kBs;
    return cfg;
}

TEST(MemBlockDevice, ReadsBackWrites)
{
    fs::MemBlockDevice dev(4096, 64);
    const auto a = block(0xaa);
    dev.writeRange(7, 1, {a.data(), a.size()});
    std::vector<std::uint8_t> out(4096);
    dev.readRange(7, 1, {out.data(), out.size()});
    EXPECT_EQ(out, a);
    EXPECT_EQ(dev.readsStat(), 1u);
    EXPECT_EQ(dev.writesStat(), 1u);
    EXPECT_EQ(dev.capacityBytes(), 64u * 4096);
}

// ---------------------------------------------------------------------
// The BlockDevice contract, over every production device
// ---------------------------------------------------------------------

/** Rig<Device> owns a kBlocks-block Device, dev, and whatever dev
 *  wraps. */
template <typename Device>
struct Rig;

template <>
struct Rig<fs::MemBlockDevice>
{
    fs::MemBlockDevice dev{kBs, kBlocks};
};

template <>
struct Rig<fs::ArrayBlockDevice>
{
    raid::RaidArray array{raid5Layout(), 1024 * 1024};
    fs::ArrayBlockDevice dev{array, kBs, kBlocks};
};

/** The wrappers wrap a MemBlockDevice. */
template <typename Wrapper>
struct WrapperRig
{
    fs::MemBlockDevice mem{kBs, kBlocks};
    Wrapper dev{mem};
};

template <>
struct Rig<fs::HookBlockDevice> : WrapperRig<fs::HookBlockDevice>
{
};

template <>
struct Rig<fs::FaultDevice> : WrapperRig<fs::FaultDevice>
{
};

template <>
struct Rig<integrity::VerifyingDevice>
{
    fs::MemBlockDevice mem{kBs, kBlocks};
    integrity::VerifyingDevice dev{mem, nullptr};
};

using Devices =
    ::testing::Types<fs::MemBlockDevice, fs::ArrayBlockDevice,
                     fs::HookBlockDevice, fs::FaultDevice,
                     integrity::VerifyingDevice>;

template <typename Device>
class DeviceContract : public ::testing::Test
{
  protected:
    Rig<Device> rig;
    fs::BlockDevice &dev = rig.dev;
};
TYPED_TEST_SUITE(DeviceContract, Devices);

template <typename Device>
using DeviceContractDeathTest = DeviceContract<Device>;
TYPED_TEST_SUITE(DeviceContractDeathTest, Devices);

TYPED_TEST(DeviceContract, RoundTrips)
{
    fs::BlockDevice &dev = this->dev;
    ASSERT_EQ(dev.blockSize(), kBs);
    ASSERT_EQ(dev.numBlocks(), kBlocks);

    // One block.
    const auto a = block(0xaa);
    dev.writeRange(7, 1, {a.data(), a.size()});
    std::vector<std::uint8_t> out(kBs);
    dev.readRange(7, 1, {out.data(), out.size()});
    EXPECT_EQ(out, a);

    // Several blocks, up to the device's last one, read back whole
    // and one block at a time.
    std::vector<std::uint8_t> buf(3 * kBs);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i / kBs + 1);
    for (const std::uint64_t bno : {std::uint64_t(10), kBlocks - 3}) {
        dev.writeRange(bno, 3, {buf.data(), buf.size()});
        std::vector<std::uint8_t> whole(3 * kBs);
        dev.readRange(bno, 3, {whole.data(), whole.size()});
        EXPECT_EQ(whole, buf) << "extent at " << bno;
        for (std::uint64_t b = 0; b < 3; ++b) {
            dev.readRange(bno + b, 1, {out.data(), out.size()});
            EXPECT_EQ(out, block(static_cast<std::uint8_t>(b + 1)))
                << "block " << bno + b;
        }
    }
    // The single block written first is untouched.
    dev.readRange(7, 1, {out.data(), out.size()});
    EXPECT_EQ(out, a);
}

TYPED_TEST(DeviceContract, ZeroLengthExtentsReturnEarly)
{
    fs::BlockDevice &dev = this->dev;
    // Zero-length never validates bounds or touches counters, even
    // with a wild bno.
    dev.readRange(1000, 0, {});
    dev.writeRange(1000, 0, {});
    EXPECT_EQ(dev.readsStat(), 0u);
    EXPECT_EQ(dev.writesStat(), 0u);
}

TYPED_TEST(DeviceContract, CountersCountBlocks)
{
    fs::BlockDevice &dev = this->dev;
    std::vector<std::uint8_t> buf(5 * kBs);
    dev.writeRange(3, 5, {buf.data(), buf.size()});
    dev.readRange(3, 5, {buf.data(), buf.size()});
    EXPECT_EQ(dev.writesStat(), 5u);
    EXPECT_EQ(dev.readsStat(), 5u);
    dev.writeRange(9, 1, {buf.data(), kBs});
    dev.readRange(9, 1, {buf.data(), kBs});
    EXPECT_EQ(dev.writesStat(), 6u);
    EXPECT_EQ(dev.readsStat(), 6u);
}

TYPED_TEST(DeviceContractDeathTest, BadExtentsPanic)
{
    fs::BlockDevice &dev = this->dev;
    std::vector<std::uint8_t> buf(kBs);
    const std::span<std::uint8_t> out{buf.data(), buf.size()};
    const std::span<const std::uint8_t> in{buf.data(), buf.size()};
    EXPECT_DEATH(dev.readRange(8, kWrapCount, out), "beyond device");
    EXPECT_DEATH(dev.writeRange(8, kWrapCount, in), "beyond device");
    // Past the end.
    EXPECT_DEATH(dev.readRange(kBlocks + 4, 1, out), "beyond device");
    EXPECT_DEATH(dev.writeRange(kBlocks, 1, in), "beyond device");
    // In-bounds extent, wrong buffer size.
    EXPECT_DEATH(dev.readRange(0, 4, out), "buffer size");
    EXPECT_DEATH(dev.writeRange(0, 4, in), "buffer size");
}

TEST(FaultDevice, DropsWritesAfterLimit)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    const auto a = block(1), b = block(2), c = block(3);
    dev.setWriteLimit(2);
    dev.writeRange(0, 1, {a.data(), a.size()});
    dev.writeRange(1, 1, {b.data(), b.size()});
    dev.writeRange(2, 1, {c.data(), c.size()}); // dropped
    EXPECT_TRUE(dev.crashed());
    EXPECT_EQ(dev.droppedWrites(), 1u);

    std::vector<std::uint8_t> out(4096);
    mem.readRange(0, 1, {out.data(), out.size()});
    EXPECT_EQ(out, a);
    mem.readRange(2, 1, {out.data(), out.size()});
    EXPECT_EQ(out, block(0)); // never arrived

    dev.heal();
    dev.writeRange(2, 1, {c.data(), c.size()});
    mem.readRange(2, 1, {out.data(), out.size()});
    EXPECT_EQ(out, c);
}

TEST(FaultDevice, TearGarblesTheFirstDroppedWrite)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    dev.setTearOnCrash(true);
    dev.setWriteLimit(0);
    const auto a = block(0x11);
    dev.writeRange(5, 1, {a.data(), a.size()});
    std::vector<std::uint8_t> out(4096);
    mem.readRange(5, 1, {out.data(), out.size()});
    // First half landed, the rest is garbage.
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2048, a.begin()));
    EXPECT_NE(out, a);
}

TEST(FaultDevice, HealResetsCrashStateForTheNextCrash)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::FaultDevice dev(mem);
    dev.setTearOnCrash(true);
    dev.setWriteLimit(0);
    const auto a = block(0x11);
    dev.writeRange(5, 1, {a.data(), a.size()}); // torn
    EXPECT_EQ(dev.droppedWrites(), 1u);

    dev.heal();
    EXPECT_FALSE(dev.crashed());
    EXPECT_EQ(dev.droppedWrites(), 0u); // stats reset with the fault

    // A second crash tears again: heal() must rearm tearDone, or the
    // post-heal crash silently drops where the first one tore.
    dev.setWriteLimit(0);
    const auto b = block(0x22);
    dev.writeRange(9, 1, {b.data(), b.size()});
    EXPECT_EQ(dev.droppedWrites(), 1u);
    std::vector<std::uint8_t> out(4096);
    mem.readRange(9, 1, {out.data(), out.size()});
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 2048, b.begin()));
    EXPECT_NE(out, b); // torn, not untouched
}

TEST(FaultDeviceDeathTest, CrashedDeviceStillRejectsBadExtents)
{
    // Past the write limit, with tear off, nothing lands, but a bad
    // extent is still the caller's bug and must not drop silently.
    fs::MemBlockDevice mem(kBs, 16);
    fs::FaultDevice dev(mem);
    dev.setWriteLimit(0);
    ASSERT_TRUE(dev.crashed());
    std::vector<std::uint8_t> buf(kBs);
    const std::span<const std::uint8_t> in{buf.data(), buf.size()};
    EXPECT_DEATH(dev.writeRange(20, 1, in), "beyond device");
    EXPECT_DEATH(dev.writeRange(8, kWrapCount, in), "beyond device");
    EXPECT_DEATH(dev.writeRange(0, 4, in), "buffer size");
}

TEST(HookBlockDevice, ObservesTraffic)
{
    fs::MemBlockDevice mem(4096, 16);
    fs::HookBlockDevice dev(mem);
    std::uint64_t writes = 0, write_bytes = 0;
    dev.setWriteHook([&](std::uint64_t off, std::uint64_t len) {
        EXPECT_EQ(off % 4096, 0u);
        ++writes;
        write_bytes += len;
    });
    const auto a = block(9);
    std::vector<std::uint8_t> out(4096);
    dev.writeRange(3, 1, {a.data(), a.size()});
    dev.readRange(3, 1, {out.data(), out.size()});
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(write_bytes, 4096u);
    EXPECT_EQ(out, a);
}

TEST(ArrayBlockDevice, MaintainsParityUnderneath)
{
    raid::RaidArray array(raid5Layout(), 1024 * 1024);
    array.storeParity();
    fs::ArrayBlockDevice dev(array, 4096);

    sim::Random rng(1);
    for (int i = 0; i < 50; ++i) {
        auto b = block(static_cast<std::uint8_t>(rng.next()));
        dev.writeRange(rng.below(dev.numBlocks()), 1,
                       {b.data(), b.size()});
    }
    EXPECT_TRUE(array.redundancyConsistent());

    // A device-level read survives a disk failure transparently.
    const auto marker = block(0x5e);
    dev.writeRange(11, 1, {marker.data(), marker.size()});
    array.failDisk(2);
    std::vector<std::uint8_t> out(4096);
    dev.readRange(11, 1, {out.data(), out.size()});
    EXPECT_EQ(out, marker);
}

} // namespace
