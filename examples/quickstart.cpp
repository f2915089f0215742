/**
 * @file
 * Quickstart: bring up a RAID-II server, store a file through the
 * client library over the Ultranet fast path, read it back, and check
 * the bytes survived the trip through LFS and the RAID-5 array.
 *
 * Build:  cmake -B build -G Ninja && cmake --build build
 * Run:    ./build/examples/quickstart
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/file_protocol.hh"
#include "server/raid2_server.hh"
#include "server/request_scheduler.hh"
#include "sim/event_queue.hh"

using namespace raid2;

int
main()
{
    std::printf("RAID-II quickstart\n");
    std::printf("==================\n\n");

    // 1. The simulated world: one event queue drives everything.
    sim::EventQueue eq;

    // 2. A RAID-II server: XBUS board, 16 IBM 0661 drives in RAID-5
    //    (64 KB stripe unit), LFS with 960 KB segments.
    server::Raid2Server::Config cfg;
    cfg.topo.numCougars = 4;
    cfg.topo.disksPerString = 2;
    server::Raid2Server server(eq, "raid2", cfg);
    std::printf("server: %u disks, %s, stripe unit %llu KB, capacity "
                "%.1f GB\n",
                server.array().numDisks(),
                raid::raidLevelName(server.array().layout().level()),
                (unsigned long long)(server.array().layout().unitBytes() /
                                     1024),
                server.array().capacity() / 1e9);

    // 3. A client workstation on the Ultranet ring, using the RAID
    //    file library (raid_open / raid_read / raid_write, §3.3)
    //    through the server's front end.
    server::RequestScheduler sched(eq, server);
    net::UltranetFabric ultranet(eq, "ultranet");
    net::ClientModel client(eq, "client");
    server::RaidFileClient lib(eq, sched, client, ultranet);

    const std::uint64_t file_bytes = 16 * sim::MB;
    const std::uint64_t req = 1 * sim::MB;

    // 4. Write the file over the fast path.
    server::RaidFileClient::Handle handle = 0;
    std::uint64_t written = 0;
    bool write_finished = false;
    sim::Tick write_start = 0;

    std::function<void()> write_next = [&] {
        if (written >= file_bytes) {
            server.fsSync([&] { write_finished = true; });
            return;
        }
        lib.raidWrite(handle, req,
                      [&](const server::RaidFileClient::Result &r) {
                          if (!r.ok()) {
                              std::printf("raid_write failed\n");
                              std::exit(1);
                          }
                          written += r.bytes;
                          write_next();
                      });
    };
    server.fs().mkdir("/demo"); // parent directory for the new file
    lib.raidOpen("/demo/movie.bin", /*create=*/true,
                 [&](const server::RaidFileClient::Result &r) {
                     if (!r.ok()) {
                         std::printf("raid_open failed\n");
                         std::exit(1);
                     }
                     handle = r.handle;
                     write_start = eq.now();
                     write_next();
                 });

    eq.runUntilDone([&] { return write_finished; });
    const double write_mbs =
        sim::mbPerSec(written, eq.now() - write_start);

    // 5. Read it back.
    lib.raidSeek(handle, 0);
    std::uint64_t read_back = 0;
    bool read_finished = false;
    const sim::Tick read_start = eq.now();
    std::function<void()> read_next = [&] {
        if (read_back >= file_bytes) {
            read_finished = true;
            return;
        }
        lib.raidRead(handle, req,
                     [&](const server::RaidFileClient::Result &r) {
                         if (!r.ok()) {
                             std::printf("raid_read failed\n");
                             std::exit(1);
                         }
                         read_back += r.bytes;
                         read_next();
                     });
    };
    read_next();
    eq.runUntilDone([&] { return read_finished; });
    const double read_mbs =
        sim::mbPerSec(read_back, eq.now() - read_start);
    lib.raidClose(handle);

    // 6. Verify the functional plane end to end.
    const auto st = server.fs().stat("/demo/movie.bin");
    std::vector<std::uint8_t> data(st.size);
    server.fs().read(st.ino, 0, {data.data(), data.size()});
    std::uint64_t nonzero = 0;
    for (std::uint8_t b : data)
        nonzero += b != 0;
    const auto fsck = server.fs().fsck();

    std::printf("\nwrote %llu MB at %.2f MB/s (client-limited, §3.4)\n",
                (unsigned long long)(written / sim::MB), write_mbs);
    std::printf("read  %llu MB at %.2f MB/s\n",
                (unsigned long long)(read_back / sim::MB), read_mbs);
    std::printf("file size on server: %llu bytes, %llu non-zero\n",
                (unsigned long long)st.size,
                (unsigned long long)nonzero);
    std::printf("segments written: %llu, fsck: %s\n",
                (unsigned long long)server.fs().stats().segmentsWritten,
                fsck.ok ? "clean" : "PROBLEMS");
    for (const auto &p : fsck.problems())
        std::printf("  fsck: %s\n", p.c_str());

    return fsck.ok && st.size == file_bytes ? 0 : 1;
}
