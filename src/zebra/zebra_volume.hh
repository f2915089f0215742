/**
 * @file
 * Zebra: striping a client's log across multiple RAID-II servers.
 *
 * §5.2: "Zebra is a network file system designed to provide high-
 * bandwidth file access by striping files across multiple file
 * servers. ... Zebra incorporates ideas from both RAID and LFS: from
 * RAID, the ideas of combining many relatively low-performance devices
 * into a single high-performance logical device, and using parity to
 * survive device failures; and from LFS the concept of treating the
 * storage system as a log. ... the servers in Zebra perform very
 * simple operations, merely storing blocks of the logical log of files
 * without examining the content of the blocks."
 *
 * ZebraVolume implements exactly that client role: an append-only
 * logical log divided into stripes of (N-1) data fragments plus one
 * client-computed parity fragment, each fragment appended to a dumb
 * per-server fragment file over the servers' high-bandwidth path.
 * Parity rotates across servers; any single server loss is survived
 * (degraded reads reconstruct from the survivors, and a replacement
 * server's fragment file can be rebuilt on line).
 */

#ifndef RAID2_ZEBRA_ZEBRA_VOLUME_HH
#define RAID2_ZEBRA_ZEBRA_VOLUME_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "server/raid2_server.hh"

namespace raid2::zebra {

/** Client-side striped log over N RAID-II servers. */
class ZebraVolume
{
  public:
    struct Config
    {
        /** Per-server fragment size (the striping unit). */
        std::uint64_t fragmentBytes = 512 * 1024;
    };

    ZebraVolume(sim::EventQueue &eq,
                std::vector<server::Raid2Server *> servers,
                const Config &cfg);

    /** @{ Geometry. */
    unsigned numServers() const
    {
        return static_cast<unsigned>(servers.size());
    }
    std::uint64_t fragmentBytes() const { return cfg.fragmentBytes; }
    /** Data bytes per stripe: (N-1) fragments. */
    std::uint64_t stripeDataBytes() const
    {
        return cfg.fragmentBytes * (numServers() - 1);
    }
    /** @} */

    /**
     * Append @p data to the logical log (Zebra clients batch all
     * writes into their log).  Full stripes are emitted to the
     * servers as they form; @p done fires when every stripe this call
     * emitted is stored (immediately if none).
     */
    void append(std::span<const std::uint8_t> data, sim::Event done);

    /** Force out the partial tail stripe (zero-padded). */
    void flush(sim::Event done);

    /** Logical bytes appended so far. */
    std::uint64_t size() const { return logicalSize; }

    /**
     * Read [off, off+len) of the log: functional bytes into @p out
     * (reconstructing via parity if a server is down), timed transfer
     * through each involved server's high-bandwidth read path.
     */
    void read(std::uint64_t off, std::span<std::uint8_t> out, sim::Event done);

    /** Mark a server unavailable (its fragments reconstruct). */
    void failServer(unsigned s);
    /** Bring a server back (after rebuildServer). */
    void restoreServer(unsigned s);
    bool isFailed(unsigned s) const { return failed.at(s); }

    /**
     * Rebuild a (restored but empty) server's fragment file from the
     * survivors: read every stripe's other fragments, XOR, store.
     */
    void rebuildServer(unsigned s, sim::Event done);

    /** @{ Statistics. */
    std::uint64_t stripesWritten() const { return _stripesWritten; }
    std::uint64_t degradedReads() const { return _degradedReads; }
    std::uint64_t rebuilds() const { return _rebuilds; }

    /** Register "zebra.*": appended_bytes, stripes, degraded_reads,
     *  rebuilds, parity_bytes. */
    void registerStats(sim::StatsRegistry &reg) const;
    /** @} */

    /** Which server holds parity for @p stripe. */
    unsigned parityServer(std::uint64_t stripe) const;
    /** Which server holds data fragment @p k of @p stripe. */
    unsigned dataServer(std::uint64_t stripe, unsigned k) const;

  private:
    struct Rebuild;

    /** Emit the (full) stripe at the head of the pending buffer. */
    void emitStripe(sim::Event done_one);

    /** Rebuild the next stripe of @p r's server, then the rest. */
    void rebuildStripe(std::unique_ptr<Rebuild> r);

    /** Functional fragment fetch (degraded-aware). */
    void readFragment(std::uint64_t stripe, unsigned k,
                      std::uint64_t off_in_frag,
                      std::span<std::uint8_t> out);

    sim::EventQueue &eq;
    std::vector<server::Raid2Server *> servers;
    Config cfg;

    std::vector<lfs::InodeNum> fragIno; // per-server fragment file
    std::vector<bool> failed;

    std::vector<std::uint8_t> pending; // unflushed tail of the log
    std::uint64_t logicalSize = 0;     // total appended
    std::uint64_t flushedStripes = 0;

    std::uint64_t _stripesWritten = 0;
    std::uint64_t _degradedReads = 0;
    std::uint64_t _rebuilds = 0;
    std::uint64_t _parityBytes = 0;
};

} // namespace raid2::zebra

#endif // RAID2_ZEBRA_ZEBRA_VOLUME_HH
