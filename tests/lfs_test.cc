/**
 * @file
 * LFS functional tests: namespace operations, file I/O across the
 * direct/indirect/double-indirect ranges, segment mechanics, extent
 * mapping, truncate, and randomized reference-model comparison.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fs/mem_block_device.hh"
#include "lfs/lfs.hh"
#include "sim/random.hh"

namespace {

using namespace raid2;
using lfs::Errno;
using lfs::FileType;
using lfs::Lfs;
using lfs::LfsError;

struct LfsFixture : public ::testing::Test
{
    // 64 MB device, small segments so tests cross many of them.
    fs::MemBlockDevice dev{4096, 16384};
    std::unique_ptr<Lfs> fs;

    void
    SetUp() override
    {
        Lfs::Params p;
        p.segBlocks = 32; // 128 KB segments
        Lfs::format(dev, p);
        fs = std::make_unique<Lfs>(dev);
    }

    std::vector<std::uint8_t>
    pattern(std::size_t n, std::uint64_t seed)
    {
        sim::Random rng(seed);
        std::vector<std::uint8_t> v(n);
        for (auto &b : v)
            b = static_cast<std::uint8_t>(rng.next());
        return v;
    }

    void
    expectClean()
    {
        const auto report = fs->fsck();
        EXPECT_TRUE(report.ok);
        for (const auto &p : report.problems())
            ADD_FAILURE() << "fsck: " << p;
    }
};

TEST_F(LfsFixture, FreshFileSystemIsClean)
{
    expectClean();
    EXPECT_TRUE(fs->readdir("/").empty());
    EXPECT_EQ(fs->stat("/").type, FileType::Directory);
}

TEST_F(LfsFixture, CreateWriteReadSmall)
{
    const auto ino = fs->create("/hello.txt");
    const auto data = pattern(100, 1);
    EXPECT_EQ(fs->write(ino, 0, {data.data(), data.size()}), 100u);
    std::vector<std::uint8_t> back(100);
    EXPECT_EQ(fs->read(ino, 0, {back.data(), back.size()}), 100u);
    EXPECT_EQ(back, data);
    EXPECT_EQ(fs->stat("/hello.txt").size, 100u);
    expectClean();
}

TEST_F(LfsFixture, UnalignedOverwritesAndReads)
{
    const auto ino = fs->create("/f");
    std::vector<std::uint8_t> ref(30000, 0);
    sim::Random rng(2);
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t len = 1 + rng.below(9000);
        const std::uint64_t off = rng.below(ref.size() - len);
        const auto data = pattern(len, 100 + i);
        fs->write(ino, off, {data.data(), data.size()});
        std::copy(data.begin(), data.end(), ref.begin() + off);
    }
    std::vector<std::uint8_t> back(ref.size());
    EXPECT_EQ(fs->read(ino, 0, {back.data(), back.size()}),
              fs->statIno(ino).size);
    back.resize(fs->statIno(ino).size);
    ref.resize(back.size());
    EXPECT_EQ(back, ref);
    expectClean();
}

TEST_F(LfsFixture, HolesReadAsZero)
{
    const auto ino = fs->create("/sparse");
    const auto data = pattern(100, 3);
    fs->write(ino, 1000000, {data.data(), data.size()});
    EXPECT_EQ(fs->statIno(ino).size, 1000100u);
    std::vector<std::uint8_t> back(500);
    EXPECT_EQ(fs->read(ino, 5000, {back.data(), back.size()}), 500u);
    EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                            [](std::uint8_t b) { return b == 0; }));
    expectClean();
}

TEST_F(LfsFixture, LargeFileThroughDoubleIndirect)
{
    const auto ino = fs->create("/big");
    // > 12 direct (48 KB) + beyond the single indirect (2 MB): write
    // 3 MB so the double-indirect level is exercised.
    const std::uint64_t size = 3 * 1024 * 1024 + 777;
    const auto data = pattern(size, 4);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->sync();
    std::vector<std::uint8_t> back(size);
    EXPECT_EQ(fs->read(ino, 0, {back.data(), back.size()}), size);
    EXPECT_EQ(back, data);
    expectClean();
}

TEST_F(LfsFixture, ReadPastEofTruncated)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(1000, 5);
    fs->write(ino, 0, {data.data(), data.size()});
    std::vector<std::uint8_t> back(5000, 0xcc);
    EXPECT_EQ(fs->read(ino, 500, {back.data(), back.size()}), 500u);
    EXPECT_EQ(fs->read(ino, 1000, {back.data(), back.size()}), 0u);
    EXPECT_EQ(fs->read(ino, 99999, {back.data(), back.size()}), 0u);
}

TEST_F(LfsFixture, DirectoryTreeOps)
{
    fs->mkdir("/a");
    fs->mkdir("/a/b");
    fs->create("/a/b/f1");
    fs->create("/a/f2");
    EXPECT_EQ(fs->readdir("/a").size(), 2u);
    EXPECT_EQ(fs->readdir("/a/b").size(), 1u);
    EXPECT_TRUE(fs->exists("/a/b/f1"));
    EXPECT_FALSE(fs->exists("/a/b/f2"));
    EXPECT_EQ(fs->stat("/a").nlink, 3u); // 2 + subdir b
    expectClean();
}

TEST_F(LfsFixture, NamespaceErrors)
{
    fs->create("/f");
    EXPECT_THROW(fs->create("/f"), LfsError);
    EXPECT_THROW(fs->lookup("/missing"), LfsError);
    EXPECT_THROW(fs->readdir("/f"), LfsError);
    EXPECT_THROW(fs->mkdir("/f/sub"), LfsError);
    EXPECT_THROW(fs->rmdir("/f"), LfsError);
    EXPECT_THROW(fs->unlink("/nope"), LfsError);
    fs->mkdir("/d");
    fs->create("/d/x");
    EXPECT_THROW(fs->rmdir("/d"), LfsError); // not empty
    EXPECT_THROW(fs->unlink("/d"), LfsError); // is a directory
    EXPECT_THROW(fs->lookup("relative/path"), LfsError);
    expectClean();
}

TEST_F(LfsFixture, ReadOfADirectoryRaisesIsDirectory)
{
    fs->mkdir("/d");
    fs->create("/d/x");
    const auto ino = fs->lookup("/d");
    std::vector<std::uint8_t> out(64);
    bool threw = false;
    try {
        fs->read(ino, 0, {out.data(), out.size()});
    } catch (const LfsError &e) {
        threw = true;
        EXPECT_EQ(e.code(), Errno::IsDirectory);
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(fs->readdir("/d").size(), 1u);
}

TEST_F(LfsFixture, UnlinkFreesSpace)
{
    const auto before = fs->freeSegments();
    const auto ino = fs->create("/f");
    const auto data = pattern(2 * 1024 * 1024, 6);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->sync();
    EXPECT_LT(fs->freeSegments(), before);
    fs->unlink("/f");
    fs->sync();
    // Dead segments become free without cleaning.
    EXPECT_GE(fs->freeSegments() + 3, before);
    EXPECT_FALSE(fs->exists("/f"));
    expectClean();
}

TEST_F(LfsFixture, RenameFileAndDirectory)
{
    fs->mkdir("/src");
    fs->mkdir("/dst");
    const auto ino = fs->create("/src/f");
    const auto data = pattern(5000, 7);
    fs->write(ino, 0, {data.data(), data.size()});

    fs->rename("/src/f", "/dst/g");
    EXPECT_FALSE(fs->exists("/src/f"));
    EXPECT_EQ(fs->lookup("/dst/g"), ino);

    fs->rename("/src", "/dst/srcdir");
    EXPECT_TRUE(fs->exists("/dst/srcdir"));
    EXPECT_EQ(fs->stat("/").nlink, 3u); // root: 2 + dst
    EXPECT_EQ(fs->stat("/dst").nlink, 3u);
    expectClean();
}

TEST_F(LfsFixture, RenameRejectsMovingDirIntoItself)
{
    fs->mkdir("/a");
    fs->mkdir("/a/b");
    EXPECT_THROW(fs->rename("/a", "/a/b/c"), LfsError);
    EXPECT_THROW(fs->rename("/a", "/a/x"), LfsError);
    // Sibling with a common name prefix is fine.
    fs->mkdir("/ab");
    fs->rename("/a", "/ab/a");
    EXPECT_TRUE(fs->exists("/ab/a/b"));
    expectClean();
}

TEST_F(LfsFixture, RenameOverwritesTarget)
{
    const auto a = fs->create("/a");
    fs->create("/b");
    const auto data = pattern(100, 8);
    fs->write(a, 0, {data.data(), data.size()});
    fs->rename("/a", "/b");
    EXPECT_FALSE(fs->exists("/a"));
    EXPECT_EQ(fs->lookup("/b"), a);
    expectClean();
}

TEST_F(LfsFixture, HardLinksShareTheInode)
{
    const auto ino = fs->create("/orig");
    const auto data = pattern(9000, 42);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->mkdir("/d");
    fs->link("/orig", "/d/alias");

    EXPECT_EQ(fs->lookup("/d/alias"), ino);
    EXPECT_EQ(fs->stat("/orig").nlink, 2u);

    // Writes through one name are visible through the other.
    const auto more = pattern(100, 43);
    fs->write(fs->lookup("/d/alias"), 9000, {more.data(), more.size()});
    EXPECT_EQ(fs->stat("/orig").size, 9100u);

    // Dropping one name keeps the data; dropping both frees it.
    fs->unlink("/orig");
    EXPECT_FALSE(fs->exists("/orig"));
    std::vector<std::uint8_t> back(9000);
    fs->read(fs->lookup("/d/alias"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
    expectClean();
    fs->unlink("/d/alias");
    EXPECT_THROW(fs->statIno(ino), LfsError);
    expectClean();
}

TEST_F(LfsFixture, LinkErrors)
{
    fs->create("/f");
    fs->mkdir("/d");
    EXPECT_THROW(fs->link("/d", "/d2"), LfsError);      // dir link
    EXPECT_THROW(fs->link("/f", "/d"), LfsError);       // exists
    EXPECT_THROW(fs->link("/nope", "/x"), LfsError);    // missing
    expectClean();
}

TEST_F(LfsFixture, HardLinksSurviveRemountAndCleaning)
{
    const auto ino = fs->create("/a");
    const auto data = pattern(50000, 44);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->link("/a", "/b");
    fs->checkpoint();

    fs->clean(static_cast<unsigned>(fs->totalSegments()));
    EXPECT_EQ(fs->stat("/b").nlink, 2u);
    std::vector<std::uint8_t> back(data.size());
    fs->read(fs->lookup("/b"), 0, {back.data(), back.size()});
    EXPECT_EQ(back, data);
    expectClean();
}

TEST_F(LfsFixture, TruncateShrinkAndGrow)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(100000, 9);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->truncate(ino, 33333);
    EXPECT_EQ(fs->statIno(ino).size, 33333u);
    std::vector<std::uint8_t> back(33333);
    fs->read(ino, 0, {back.data(), back.size()});
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));

    // Growing truncate leaves a zero hole.
    fs->truncate(ino, 50000);
    std::vector<std::uint8_t> tail(50000 - 33333);
    EXPECT_EQ(fs->read(ino, 33333, {tail.data(), tail.size()}),
              tail.size());
    EXPECT_TRUE(std::all_of(tail.begin(), tail.end(),
                            [](std::uint8_t b) { return b == 0; }));
    expectClean();
}

TEST_F(LfsFixture, MapFileCoversAndMerges)
{
    const auto ino = fs->create("/f");
    const auto data = pattern(300000, 10);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->sync();
    const auto extents = fs->mapFile(ino, 0, 300000);
    std::uint64_t covered = 0;
    for (const auto &e : extents) {
        EXPECT_FALSE(e.hole);
        covered += e.bytes;
    }
    EXPECT_EQ(covered, 300000u);
    // A sequentially-written LFS file is nearly contiguous in the
    // log: far fewer extents than blocks.
    EXPECT_LT(extents.size(), 300000u / 4096 / 4);
}

TEST_F(LfsFixture, MapFileMarksHoles)
{
    const auto ino = fs->create("/sparse");
    const auto data = pattern(4096, 11);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->write(ino, 100 * 4096, {data.data(), data.size()});
    const auto extents = fs->mapFile(ino, 0, 101 * 4096);
    bool saw_hole = false;
    std::uint64_t covered = 0;
    for (const auto &e : extents) {
        saw_hole = saw_hole || e.hole;
        covered += e.bytes;
    }
    EXPECT_TRUE(saw_hole);
    EXPECT_EQ(covered, 101u * 4096);
}

TEST_F(LfsFixture, BlockMapWalksReadEachPointerBlockOnce)
{
    // 3 MB reaches past the single-indirect range (file blocks 12..523
    // at 4 KB) into the first double-indirect child.
    const auto ino = fs->create("/f");
    const auto data = pattern(3 * 1024 * 1024, 13);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->sync(); // pointer blocks now live on the device, not the buffer
    constexpr std::uint64_t span = 512 * 1024; // 128 file blocks

    // Single-indirect range: one pointer-block read for 128 blocks.
    std::uint64_t before = dev.readsStat();
    const auto extents = fs->mapFile(ino, 12 * 4096, span);
    EXPECT_EQ(dev.readsStat() - before, 1u);
    std::uint64_t covered = 0;
    for (const auto &e : extents)
        covered += e.bytes;
    EXPECT_EQ(covered, span);

    // Double-indirect range: the root and one child, once each.
    before = dev.readsStat();
    fs->mapFile(ino, 600 * 4096, span);
    EXPECT_EQ(dev.readsStat() - before, 2u);

    // readData walks the same way: 128 data blocks + 1 pointer block.
    std::vector<std::uint8_t> back(span);
    before = dev.readsStat();
    EXPECT_EQ(fs->read(ino, 12 * 4096, {back.data(), back.size()}), span);
    EXPECT_EQ(dev.readsStat() - before, 129u);
    EXPECT_TRUE(std::equal(back.begin(), back.end(),
                           data.begin() + 12 * 4096));
}

TEST_F(LfsFixture, SegmentsFillAndAdvance)
{
    const auto before = fs->stats().segmentsWritten;
    const auto ino = fs->create("/f");
    const auto data = pattern(1024 * 1024, 12);
    fs->write(ino, 0, {data.data(), data.size()});
    fs->sync();
    // 1 MB through 128 KB segments: at least 8 segments on media.
    EXPECT_GE(fs->stats().segmentsWritten - before, 8u);
    expectClean();
}

TEST_F(LfsFixture, RandomOpsAgainstReferenceModel)
{
    struct RefFile
    {
        std::vector<std::uint8_t> data;
    };
    std::map<std::string, RefFile> ref;
    sim::Random rng(99);

    for (int step = 0; step < 300; ++step) {
        const int op = static_cast<int>(rng.below(10));
        const std::string name =
            "/file" + std::to_string(rng.below(8));
        try {
            if (op < 2) {
                fs->create(name);
                ref.emplace(name, RefFile{});
            } else if (op < 3) {
                fs->unlink(name);
                ref.erase(name);
            } else if (op < 7) {
                const auto ino = fs->lookup(name);
                const std::uint64_t len = 1 + rng.below(30000);
                const std::uint64_t off = rng.below(60000);
                const auto data = pattern(len, step);
                fs->write(ino, off, {data.data(), data.size()});
                auto &f = ref.at(name).data;
                if (f.size() < off + len)
                    f.resize(off + len, 0);
                std::copy(data.begin(), data.end(), f.begin() + off);
            } else if (op < 8) {
                fs->sync();
            } else {
                const auto ino = fs->lookup(name);
                const auto &f = ref.at(name).data;
                std::vector<std::uint8_t> back(f.size() + 100);
                const auto n =
                    fs->read(ino, 0, {back.data(), back.size()});
                ASSERT_EQ(n, f.size());
                back.resize(n);
                ASSERT_EQ(back, f) << "mismatch in " << name;
            }
        } catch (const LfsError &e) {
            // Name collisions / missing files are part of the walk;
            // verify they agree with the reference.
            const bool ref_has = ref.count(name) > 0;
            if (e.code() == Errno::Exists)
                ASSERT_TRUE(ref_has);
            else if (e.code() == Errno::NoEntry)
                ASSERT_FALSE(ref_has);
            else
                throw;
        }
    }
    // Full final verification.
    for (const auto &[name, f] : ref) {
        const auto st = fs->stat(name);
        ASSERT_EQ(st.size, f.data.size());
        std::vector<std::uint8_t> back(f.data.size());
        fs->read(st.ino, 0, {back.data(), back.size()});
        ASSERT_EQ(back, f.data);
    }
    expectClean();
}

TEST_F(LfsFixture, LogFullThrowsNoSpace)
{
    const auto ino = fs->create("/f");
    const auto chunk = pattern(1024 * 1024, 13);
    bool threw = false;
    try {
        for (int i = 0; i < 200; ++i)
            fs->write(ino, std::uint64_t(i) * chunk.size(),
                      {chunk.data(), chunk.size()});
    } catch (const LfsError &e) {
        threw = true;
        EXPECT_EQ(e.code(), Errno::NoSpace);
    }
    EXPECT_TRUE(threw);
}

/**
 * Pins the log layout: which slot each block lands in, every pointer
 * value, every summary and checkpoint byte.  A seeded workload runs
 * six files out to 6 MB (direct, single- and double-indirect blocks)
 * with writes from 1 B to 600 KB, periodic sync / truncate /
 * checkpoint and the cleaner on; the device image after a remount
 * must hash to the value the layout had when this test was written.
 * A change that only makes the write path cheaper leaves it alone; a
 * change that moves a byte on the media updates the constant and says
 * why.
 */
TEST(LfsGolden, DeviceImageDigest)
{
    constexpr std::uint64_t goldenDigest = 0x951253f99c486ff3;
    constexpr unsigned files = 6;
    constexpr std::uint64_t fileMax = 6 * 1024 * 1024;
    constexpr std::uint64_t maxWrite = 600 * 1024;
    constexpr unsigned ops = 2000;

    fs::MemBlockDevice dev(4096, 24576); // 96 MB, 960 KB segments
    Lfs::format(dev);
    sim::Random rng(2024);
    std::vector<std::uint8_t> pool(1024 * 1024);
    for (auto &b : pool)
        b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::vector<std::uint8_t>> shadow(files);
    {
        Lfs fs(dev);
        fs.setAutoClean(true);
        std::vector<lfs::InodeNum> inos;
        for (unsigned f = 0; f < files; ++f)
            inos.push_back(fs.create("/f" + std::to_string(f)));
        for (unsigned op = 1; op <= ops; ++op) {
            const unsigned f = static_cast<unsigned>(rng.below(files));
            std::vector<std::uint8_t> &ref = shadow[f];
            if (op % 41 == 0) {
                const std::uint64_t size = rng.below(fileMax);
                fs.truncate(inos[f], size);
                ref.resize(size, 0);
            } else {
                // Half the writes stay under a block, half reach 600 KB.
                const std::uint64_t len =
                    1 + rng.below(rng.chance(0.5) ? 4096 : maxWrite);
                const std::uint64_t off = rng.below(fileMax - len + 1);
                const std::uint64_t src = rng.below(pool.size() - len + 1);
                fs.write(inos[f], off, {pool.data() + src, len});
                if (ref.size() < off + len)
                    ref.resize(off + len, 0);
                std::copy_n(pool.begin() + static_cast<std::ptrdiff_t>(src),
                            len, ref.begin() + static_cast<std::ptrdiff_t>(off));
            }
            if (op % 16 == 0)
                fs.sync();
            if (op % 97 == 0)
                fs.checkpoint();
        }
        fs.sync(); // the remount rolls forward past the last checkpoint
        EXPECT_GT(fs.stats().cleanerSegmentsCleaned, 100u);
    }

    Lfs fs(dev);
    const auto report = fs.fsck();
    EXPECT_TRUE(report.ok);
    for (const auto &p : report.problems())
        ADD_FAILURE() << "fsck: " << p;
    for (unsigned f = 0; f < files; ++f) {
        const auto st = fs.stat("/f" + std::to_string(f));
        ASSERT_EQ(st.size, shadow[f].size());
        std::vector<std::uint8_t> back(shadow[f].size());
        fs.read(st.ino, 0, {back.data(), back.size()});
        ASSERT_EQ(back, shadow[f]) << "file " << f;
    }

    std::vector<std::uint8_t> image(dev.capacityBytes());
    dev.readRange(0, dev.numBlocks(), {image.data(), image.size()});
    EXPECT_EQ(lfs::blockChecksum(image), goldenDigest);
}

} // namespace
