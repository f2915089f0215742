/**
 * @file
 * FFS baseline tests: round trips, update-in-place behaviour (the
 * property the small-write ablation depends on), allocation and
 * namespace handling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "ffs/ffs.hh"
#include "fs/mem_block_device.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using ffs::Ffs;

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

struct FfsFixture : public ::testing::Test
{
    fs::MemBlockDevice dev{4096, 8192}; // 32 MB
    std::unique_ptr<Ffs> fs;

    void
    SetUp() override
    {
        Ffs::format(dev);
        fs = std::make_unique<Ffs>(dev);
    }
};

TEST_F(FfsFixture, CreateWriteRead)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(50000, 1);
    fs->write(ino, 0, {data.data(), data.size()});
    std::vector<std::uint8_t> back(data.size());
    EXPECT_EQ(fs->read(ino, 0, {back.data(), back.size()}),
              data.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(fs->stat("/f").size, data.size());
}

TEST_F(FfsFixture, OverwriteIsInPlace)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(8192, 2);
    fs->write(ino, 0, {data.data(), data.size()});
    const auto before = fs->mapFile(ino, 0, 8192);
    const auto data2 = pattern(8192, 3);
    fs->write(ino, 0, {data2.data(), data2.size()});
    const auto after = fs->mapFile(ino, 0, 8192);
    // Same physical blocks: the defining difference from LFS.
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_EQ(before[i].deviceOffset, after[i].deviceOffset);
}

TEST_F(FfsFixture, SmallOverwriteTouchesOneDataBlock)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(64 * 1024, 4);
    fs->write(ino, 0, {data.data(), data.size()});
    dev.resetCounters();
    const auto small = pattern(4096, 5);
    fs->write(ino, 8192, {small.data(), small.size()});
    // Aligned overwrite: one data block + inode update.
    EXPECT_LE(dev.writesStat(), 2u);
}

TEST_F(FfsFixture, MkdirAndNestedFiles)
{
    fs->mkdir("/a");
    fs->mkdir("/a/b");
    fs->create("/a/b/c");
    EXPECT_TRUE(fs->exists("/a/b/c"));
    EXPECT_EQ(fs->readdir("/a/b").size(), 1u);
    EXPECT_THROW(fs->create("/a/b/c"), ffs::LfsError);
    EXPECT_THROW(fs->lookup("/nope"), ffs::LfsError);
}

TEST_F(FfsFixture, UnlinkFreesBlocks)
{
    // Warm the root directory's data block so it doesn't count as
    // "leaked" space below.
    fs->create("/warm");
    fs->unlink("/warm");
    const auto before = fs->freeBlocks();
    const auto ino = fs->create("/f");
    const auto data = pattern(200000, 6);
    fs->write(ino, 0, {data.data(), data.size()});
    EXPECT_LT(fs->freeBlocks(), before);
    fs->unlink("/f");
    EXPECT_EQ(fs->freeBlocks(), before);
    EXPECT_FALSE(fs->exists("/f"));
}

TEST_F(FfsFixture, ReusesFreedBlocks)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(100000, 7);
    fs->write(ino, 0, {data.data(), data.size()});
    const auto first = fs->mapFile(ino, 0, 4096);
    fs->unlink("/f");
    const auto ino2 = fs->create("/g");
    fs->write(ino2, 0, {data.data(), data.size()});
    const auto second = fs->mapFile(ino2, 0, 4096);
    EXPECT_EQ(first.front().deviceOffset, second.front().deviceOffset);
}

TEST_F(FfsFixture, HolesReadZero)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(100, 8);
    fs->write(ino, 100000, {data.data(), data.size()});
    std::vector<std::uint8_t> back(100);
    EXPECT_EQ(fs->read(ino, 0, {back.data(), back.size()}), 100u);
    EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

TEST_F(FfsFixture, PersistsAcrossRemount)
{
    const auto data = pattern(30000, 9);
    {
        const auto ino = fs->create("/f");
        fs->write(ino, 0, {data.data(), data.size()});
    }
    Ffs remounted(dev);
    std::vector<std::uint8_t> back(data.size());
    remounted.read(remounted.lookup("/f"), 0,
                   {back.data(), back.size()});
    EXPECT_EQ(back, data);
}

} // namespace
