/**
 * @file
 * StatsRegistry: registration, hierarchical dump and JSON snapshot.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "zebra/zebra_volume.hh"

using namespace raid2;

namespace {

// -----------------------------------------------------------------
// A tiny recursive-descent JSON reader, just enough to round-trip the
// registry snapshots produced by StatsRegistry::toJson().
// -----------------------------------------------------------------

struct MiniJson
{
    // Path ("a.b.c") -> scalar leaf rendered as text.
    std::map<std::string, std::string> leaves;

    static MiniJson
    parse(const std::string &text)
    {
        MiniJson out;
        std::size_t pos = 0;
        out.value(text, pos, "");
        skipWs(text, pos);
        EXPECT_EQ(pos, text.size()) << "trailing junk after document";
        return out;
    }

  private:
    static void
    skipWs(const std::string &s, std::size_t &pos)
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    static std::string
    parseString(const std::string &s, std::size_t &pos)
    {
        EXPECT_EQ(s.at(pos), '"');
        ++pos;
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;
            out += s.at(pos++);
        }
        EXPECT_EQ(s.at(pos), '"');
        ++pos;
        return out;
    }

    void
    value(const std::string &s, std::size_t &pos,
          const std::string &path)
    {
        skipWs(s, pos);
        ASSERT_LT(pos, s.size());
        if (s[pos] == '{') {
            ++pos;
            skipWs(s, pos);
            if (s[pos] == '}') {
                ++pos;
                return;
            }
            while (true) {
                skipWs(s, pos);
                const std::string key = parseString(s, pos);
                skipWs(s, pos);
                ASSERT_EQ(s.at(pos), ':');
                ++pos;
                value(s, pos,
                      path.empty() ? key : path + "." + key);
                skipWs(s, pos);
                if (s.at(pos) == ',') {
                    ++pos;
                    continue;
                }
                ASSERT_EQ(s.at(pos), '}');
                ++pos;
                return;
            }
        }
        if (s[pos] == '[') {
            ++pos;
            skipWs(s, pos);
            if (s[pos] == ']') {
                ++pos;
                return;
            }
            unsigned i = 0;
            while (true) {
                value(s, pos, path + "[" + std::to_string(i++) + "]");
                skipWs(s, pos);
                if (s.at(pos) == ',') {
                    ++pos;
                    continue;
                }
                ASSERT_EQ(s.at(pos), ']');
                ++pos;
                return;
            }
        }
        if (s[pos] == '"') {
            leaves[path] = parseString(s, pos);
            return;
        }
        // Number / true / false / null.
        std::string tok;
        while (pos < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.'))
            tok += s[pos++];
        ASSERT_FALSE(tok.empty());
        leaves[path] = tok;
    }
};

TEST(StatsRegistry, RegistersAndReadsBack)
{
    sim::StatsRegistry reg;
    const std::uint64_t s = 42;
    sim::Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    reg.add("a.count", s);
    reg.add("a.lat_ms", d);
    reg.addGauge("b.derived", [] { return 7.5; });

    EXPECT_TRUE(reg.contains("a.count"));
    EXPECT_TRUE(reg.contains("b.derived"));
    EXPECT_FALSE(reg.contains("a"));
    EXPECT_EQ(reg.size(), 3u);
}

TEST(StatsRegistry, RemovePrefixDropsSubtree)
{
    sim::StatsRegistry reg;
    const std::uint64_t a = 0, b = 0, c = 0;
    reg.add("disk.0.reads", a);
    reg.add("disk.1.reads", b);
    reg.add("raid.reads", c);
    reg.removePrefix("disk.");
    EXPECT_FALSE(reg.contains("disk.0.reads"));
    EXPECT_FALSE(reg.contains("disk.1.reads"));
    EXPECT_TRUE(reg.contains("raid.reads"));
}

TEST(StatsRegistryDeathTest, DuplicateNamePanics)
{
    sim::StatsRegistry reg;
    const std::uint64_t a = 0, b = 0;
    reg.add("x.count", a);
    EXPECT_DEATH(reg.add("x.count", b), "duplicate");
}

TEST(StatsRegistryDeathTest, LeafSubtreeConflictPanics)
{
    sim::StatsRegistry reg;
    const std::uint64_t a = 0, b = 0;
    reg.add("x.y", a);
    // "x.y" is a leaf; "x.y.z" would need it to be an object.
    EXPECT_DEATH(reg.add("x.y.z", b), "conflicts");
}

TEST(StatsRegistry, DumpIsSortedAndGroupsSiblings)
{
    sim::StatsRegistry reg;
    const std::uint64_t a = 1, b = 2, c = 3;
    reg.add("zeta.count", a);
    reg.add("alpha.second", b);
    reg.add("alpha.first", c);

    std::ostringstream os;
    reg.dump(os);
    const std::string text = os.str();
    const auto p1 = text.find("alpha.first");
    const auto p2 = text.find("alpha.second");
    const auto p3 = text.find("zeta.count");
    ASSERT_NE(p1, std::string::npos);
    ASSERT_NE(p2, std::string::npos);
    ASSERT_NE(p3, std::string::npos);
    EXPECT_LT(p1, p2);
    EXPECT_LT(p2, p3);
}

TEST(StatsRegistry, JsonRoundTripsHierarchy)
{
    sim::StatsRegistry reg;
    const std::uint64_t reads = 12;
    sim::Distribution lat;
    lat.sample(2.0);
    lat.sample(4.0);
    sim::Utilization util;
    util.addBusy(0, 500);
    reg.add("disk.0.reads", reads);
    reg.add("disk.0.lat_ms", lat);
    reg.add("xbus.port.busy", util);
    reg.addGauge("raid.stripes", [] { return 9.0; });
    reg.setElapsed([] { return sim::Tick(1000); });

    const MiniJson doc = MiniJson::parse(reg.toJson());
    EXPECT_EQ(doc.leaves.at("disk.0.reads"), "12");
    EXPECT_EQ(doc.leaves.at("raid.stripes"), "9");
    EXPECT_EQ(doc.leaves.at("disk.0.lat_ms.count"), "2");
    EXPECT_EQ(doc.leaves.at("disk.0.lat_ms.mean"), "3");
    EXPECT_EQ(doc.leaves.at("disk.0.lat_ms.min"), "2");
    EXPECT_EQ(doc.leaves.at("disk.0.lat_ms.max"), "4");
    // busy 500 of elapsed 1000 -> 0.5.
    EXPECT_EQ(doc.leaves.at("xbus.port.busy.utilization"), "0.5");
}

TEST(StatsRegistry, CompactAndPrettyJsonAgree)
{
    sim::StatsRegistry reg;
    const std::uint64_t s = 5;
    reg.add("a.b.c", s);
    std::ostringstream compact;
    reg.toJson(compact, /*pretty=*/false);
    const MiniJson d1 = MiniJson::parse(compact.str());
    const MiniJson d2 = MiniJson::parse(reg.toJson());
    EXPECT_EQ(d1.leaves, d2.leaves);
    // Compact form really is compact.
    EXPECT_EQ(compact.str().find('\n'), std::string::npos);
}

TEST(StatsRegistry, GaugeReadsLiveValue)
{
    sim::StatsRegistry reg;
    std::uint64_t hits = 0, lookups = 1;
    reg.addGauge("hit_frac",
                 [&] { return double(hits) / double(lookups); });
    hits = 1;
    lookups = 4;
    const MiniJson doc = MiniJson::parse(reg.toJson());
    EXPECT_EQ(doc.leaves.at("hit_frac"), "0.25");
}

// A counter is registered by address, so a temporary (or a narrower
// integer converted into one) cannot be.
template <typename T>
concept Registrable = requires(sim::StatsRegistry &r, T &&v) {
    r.add("x", std::forward<T>(v));
};
static_assert(Registrable<const std::uint64_t &>);
static_assert(!Registrable<std::uint64_t>);
static_assert(!Registrable<const unsigned &>);

TEST(StatsRegistry, CountersReadLiveAndPrintExactly)
{
    sim::StatsRegistry reg;
    std::uint64_t bytes = 0;
    std::uint64_t big = 0;
    reg.add("xbus.memory.bytes", bytes);
    reg.add("x.big", big);
    // Past six significant digits and past a double's 53-bit mantissa.
    bytes = 194560123;
    big = (std::uint64_t(1) << 53) + 1;

    std::ostringstream text;
    reg.dump(text);
    EXPECT_EQ(text.str(), "x.big = 9007199254740993\n"
                          "xbus.memory.bytes = 194560123\n");
    const MiniJson doc = MiniJson::parse(reg.toJson());
    EXPECT_EQ(doc.leaves.at("xbus.memory.bytes"), "194560123");
    EXPECT_EQ(doc.leaves.at("x.big"), "9007199254740993");
}

TEST(StatsRegistry, ZebraVolumeRegistersItsTree)
{
    sim::EventQueue eq;
    std::vector<std::unique_ptr<server::Raid2Server>> servers;
    std::vector<server::Raid2Server *> ptrs;
    for (unsigned i = 0; i < 3; ++i) {
        server::Raid2Server::Config cfg;
        cfg.topo.numCougars = 2;
        cfg.topo.disksPerString = 2;
        cfg.fsDeviceBytes = 64ull * 1024 * 1024;
        servers.push_back(std::make_unique<server::Raid2Server>(
            eq, "zsrv" + std::to_string(i), cfg));
        ptrs.push_back(servers.back().get());
    }
    zebra::ZebraVolume::Config zcfg;
    zcfg.fragmentBytes = 64 * 1024;
    zebra::ZebraVolume vol(eq, ptrs, zcfg);

    sim::StatsRegistry reg;
    vol.registerStats(reg);
    EXPECT_TRUE(reg.contains("zebra.appended_bytes"));
    EXPECT_TRUE(reg.contains("zebra.stripes"));
    EXPECT_TRUE(reg.contains("zebra.degraded_reads"));
    EXPECT_TRUE(reg.contains("zebra.rebuilds"));
    EXPECT_TRUE(reg.contains("zebra.parity_bytes"));

    // The counters read live values: one full stripe shows up in the
    // snapshot without re-registration.
    std::vector<std::uint8_t> data(vol.stripeDataBytes(), 0x5a);
    bool done = false;
    vol.append({data.data(), data.size()}, [&] { done = true; });
    eq.runUntilDone([&] { return done; });
    ASSERT_TRUE(done);

    const MiniJson doc = MiniJson::parse(reg.toJson());
    EXPECT_EQ(doc.leaves.at("zebra.stripes"), "1");
    EXPECT_EQ(doc.leaves.at("zebra.parity_bytes"),
              std::to_string(zcfg.fragmentBytes));
    EXPECT_EQ(doc.leaves.at("zebra.appended_bytes"),
              std::to_string(vol.stripeDataBytes()));
    EXPECT_EQ(doc.leaves.at("zebra.degraded_reads"), "0");
    EXPECT_EQ(doc.leaves.at("zebra.rebuilds"), "0");
}

} // namespace
