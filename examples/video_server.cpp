/**
 * @file
 * Video storage and playback server (§5.1).
 *
 * "RAID-II will act as a high-bandwidth video storage and playback
 * server ... RAID-II will provide video storage and play-back from the
 * disk array to a network of base stations."  This example stores a
 * set of "video" files and then plays them back as open-loop periodic
 * streams, sweeping the number of concurrent viewers and reporting
 * deadline misses — the question a playback service actually cares
 * about.  It exits non-zero unless playback is clean through 12
 * streams, misses stay under 1 % at 16, and they pass 10 % at 20 and
 * 24 streams.
 */

#include <cstdio>
#include <vector>

#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "workload/generators.hh"

using namespace raid2;

namespace {

struct PlaybackResult
{
    unsigned streams;
    double miss_rate;
    double mean_latency_ms;
    double p_like_max_ms;
};

PlaybackResult
playback(unsigned streams)
{
    sim::EventQueue eq;
    server::Raid2Server::Config cfg;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 3; // full 24-disk array
    cfg.fsDeviceBytes = 512ull * 1024 * 1024;
    server::Raid2Server server(eq, "vs", cfg);

    // Store one clip per stream: ~30 s of 2 Mb/s video in 256 KB
    // "frames" (a GOP each).
    const std::uint64_t frame = 256 * sim::KB;
    const std::uint64_t frames_per_clip = 64;
    std::vector<lfs::InodeNum> clips;
    std::vector<std::uint8_t> buf(4 * sim::MB, 0x42);
    for (unsigned s = 0; s < streams; ++s) {
        const auto ino =
            server.createFile("/clip" + std::to_string(s));
        for (std::uint64_t off = 0; off < frame * frames_per_clip;
             off += buf.size()) {
            server.fs().write(ino, off, {buf.data(), buf.size()});
        }
        clips.push_back(ino);
    }
    server.fs().checkpoint();

    workload::StreamRunner::Config scfg;
    scfg.streams = streams;
    scfg.frameBytes = frame;
    scfg.framePeriod = sim::msToTicks(250); // ~1 MB/s per stream
    scfg.framesPerStream = frames_per_clip;
    const std::uint64_t clip_bytes = frame * frames_per_clip;
    scfg.streamStrideBytes = clip_bytes;

    auto op = [&](std::uint64_t off, std::uint64_t len, sim::Event done) {
        // StreamRunner strides each stream by one clip; decode the
        // clip index and position back out of the offset.
        const unsigned s = static_cast<unsigned>(off / clip_bytes);
        server.fileRead(clips[s], off % clip_bytes, len,
                        [done = std::move(done)](server::Status) mutable {
                            done();
                        });
    };
    const auto res = workload::StreamRunner::run(eq, scfg, op);

    PlaybackResult out;
    out.streams = streams;
    out.miss_rate = res.missRate();
    out.mean_latency_ms = res.frameLatencyMs.mean();
    out.p_like_max_ms = res.frameLatencyMs.max();
    return out;
}

} // namespace

int
main()
{
    std::printf("RAID-II as a video playback server (§5.1)\n");
    std::printf("==========================================\n");
    std::printf("~1 MB/s streams (256 KB GOP / 250 ms); server is a "
                "24-disk RAID-5\n\n");
    std::printf("%8s %12s %16s %14s\n", "streams", "miss %",
                "mean frame ms", "max frame ms");

    bool ok = true;
    for (unsigned streams : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u}) {
        const auto r = playback(streams);
        std::printf("%8u %12.2f %16.2f %14.2f\n", r.streams,
                    100.0 * r.miss_rate, r.mean_latency_ms,
                    r.p_like_max_ms);
        const bool as_claimed = streams <= 12   ? r.miss_rate == 0.0
                                : streams <= 16 ? r.miss_rate < 0.01
                                                : r.miss_rate > 0.10;
        ok = ok && as_claimed;
    }

    std::printf("\nExpected: clean playback for a handful of streams, "
                "then rising deadline\nmisses as aggregate demand "
                "approaches the array's ~20 MB/s delivery.\n");
    if (!ok) {
        std::printf("FAIL: misses are not zero through 12 streams, "
                    "under 1 %% at 16 and\nover 10 %% at 20-24\n");
        return 1;
    }
    return 0;
}
