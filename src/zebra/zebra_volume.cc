#include "zebra/zebra_volume.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>

#include "raid/parity.hh"
#include "sim/join.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::zebra {

namespace {

/** Path of the dumb fragment file on each server. */
constexpr const char *fragmentPath = "/zebra-frag";

} // namespace

ZebraVolume::ZebraVolume(sim::EventQueue &eq_,
                         std::vector<server::Raid2Server *> servers_,
                         const Config &cfg_)
    : eq(eq_), servers(std::move(servers_)), cfg(cfg_)
{
    if (servers.size() < 2)
        sim::fatal("ZebraVolume: need at least 2 servers");
    if (cfg.fragmentBytes == 0)
        sim::fatal("ZebraVolume: zero fragment size");
    for (auto *srv : servers) {
        if (!srv)
            sim::fatal("ZebraVolume: null server");
        fragIno.push_back(srv->createFile(fragmentPath));
    }
    failed.assign(servers.size(), false);
}

unsigned
ZebraVolume::parityServer(std::uint64_t stripe) const
{
    return static_cast<unsigned>(stripe % servers.size());
}

unsigned
ZebraVolume::dataServer(std::uint64_t stripe, unsigned k) const
{
    if (k >= numServers() - 1)
        sim::panic("ZebraVolume: fragment index %u out of range", k);
    const unsigned p = parityServer(stripe);
    return k < p ? k : k + 1;
}

void
ZebraVolume::emitStripe(sim::Event done_one)
{
    const unsigned n = numServers();
    const std::uint64_t frag = cfg.fragmentBytes;
    const std::uint64_t stripe = flushedStripes++;
    ++_stripesWritten;

    // Slice the data fragments off the pending buffer and compute the
    // parity fragment (the *client* computes parity in Zebra).
    std::vector<std::vector<std::uint8_t>> frags(n);
    std::vector<std::uint8_t> parity(frag, 0);
    for (unsigned k = 0; k < n - 1; ++k) {
        const std::uint8_t *src = pending.data() + std::uint64_t(k) * frag;
        frags[dataServer(stripe, k)].assign(src, src + frag);
        raid::xorInto(parity.data(), src, frag);
    }
    frags[parityServer(stripe)] = std::move(parity);
    _parityBytes += frag;
    pending.erase(pending.begin(),
                  pending.begin() +
                      static_cast<std::ptrdiff_t>(stripeDataBytes()));

    // A failed server's fragment is lost until rebuildServer().
    const std::size_t live = std::count(failed.begin(), failed.end(), false);
    if (live == 0) {
        if (!done_one)
            done_one = [] {};
        eq.scheduleIn(0, std::move(done_one));
        return;
    }
    const sim::Join stored(live, std::move(done_one));
    for (unsigned j = 0; j < n; ++j) {
        if (!failed[j])
            servers[j]->fileWriteData(fragIno[j], stripe * frag,
                                      {frags[j].data(), frags[j].size()},
                                      stored);
    }
}

void
ZebraVolume::append(std::span<const std::uint8_t> data, sim::Event done)
{
    pending.insert(pending.end(), data.begin(), data.end());
    logicalSize += data.size();

    const unsigned stripes = static_cast<unsigned>(
        pending.size() / stripeDataBytes());
    if (stripes == 0) {
        if (done)
            eq.scheduleIn(0, std::move(done));
        return;
    }
    // Each emitStripe consumes one stripe of bytes.
    const sim::Join emitted(stripes, std::move(done));
    for (unsigned i = 0; i < stripes; ++i)
        emitStripe(emitted);
}

void
ZebraVolume::flush(sim::Event done)
{
    if (pending.empty()) {
        if (done)
            eq.scheduleIn(0, std::move(done));
        return;
    }
    // Zero-pad to a full stripe; logical size is unchanged.
    pending.resize(stripeDataBytes(), 0);
    emitStripe(std::move(done));
}

void
ZebraVolume::readFragment(std::uint64_t stripe, unsigned k,
                          std::uint64_t off_in_frag,
                          std::span<std::uint8_t> out)
{
    const std::uint64_t frag = cfg.fragmentBytes;
    const unsigned srv = dataServer(stripe, k);
    const std::uint64_t file_off = stripe * frag + off_in_frag;

    if (!failed[srv]) {
        servers[srv]->fs().read(fragIno[srv], file_off, out);
        return;
    }

    // Degraded: XOR the same byte range of every other fragment of
    // the stripe (data and parity alike).
    ++_degradedReads;
    std::fill(out.begin(), out.end(), 0);
    std::vector<std::uint8_t> tmp(out.size());
    for (unsigned j = 0; j < numServers(); ++j) {
        if (j == srv)
            continue;
        if (failed[j])
            sim::fatal("ZebraVolume: two servers down (%u and %u)", srv,
                       j);
        servers[j]->fs().read(fragIno[j], file_off,
                              {tmp.data(), tmp.size()});
        raid::xorInto(out.data(), tmp.data(), out.size());
    }
}

void
ZebraVolume::read(std::uint64_t off, std::span<std::uint8_t> out,
                  sim::Event done)
{
    if (off + out.size() > logicalSize)
        sim::fatal("ZebraVolume: read beyond the log end");

    const std::uint64_t frag = cfg.fragmentBytes;
    const std::uint64_t sdb = stripeDataBytes();
    const std::uint64_t flushed_bytes = flushedStripes * sdb;

    // The functional bytes are copied piece by piece; the timed reads
    // (server, file offset, bytes) are issued once counted, in order.
    std::vector<std::tuple<unsigned, std::uint64_t, std::uint64_t>> timed;
    std::uint64_t pos = off;
    std::uint64_t left = out.size();
    while (left > 0) {
        std::uint8_t *dst = out.data() + (pos - off);
        if (pos >= flushed_bytes) {
            // Tail still in the client's own buffer: free functional
            // copy, no server I/O.
            const std::uint64_t take = left;
            std::memcpy(dst, pending.data() + (pos - flushed_bytes),
                        static_cast<std::size_t>(take));
            pos += take;
            left -= take;
            continue;
        }
        const std::uint64_t stripe = pos / sdb;
        const std::uint64_t in_stripe = pos % sdb;
        const unsigned k = static_cast<unsigned>(in_stripe / frag);
        const std::uint64_t in_frag = in_stripe % frag;
        const std::uint64_t take =
            std::min(left, frag - in_frag);

        readFragment(stripe, k, in_frag,
                     {dst, static_cast<std::size_t>(take)});

        // Timed transfer(s): the fragment's server, or every survivor.
        const std::uint64_t file_off = stripe * frag + in_frag;
        const unsigned srv = dataServer(stripe, k);
        if (!failed[srv]) {
            timed.emplace_back(srv, file_off, take);
        } else {
            for (unsigned j = 0; j < numServers(); ++j) {
                if (j != srv)
                    timed.emplace_back(j, file_off, take);
            }
        }
        pos += take;
        left -= take;
    }
    if (timed.empty()) {
        if (done)
            done();
        return;
    }
    const sim::Join all(timed.size(), std::move(done));
    for (const auto &[srv, file_off, bytes] : timed) {
        servers[srv]->fileRead(fragIno[srv], file_off, bytes,
                               [all](server::Status) { all(); });
    }
}

void
ZebraVolume::failServer(unsigned s)
{
    failed.at(s) = true;
}

void
ZebraVolume::restoreServer(unsigned s)
{
    failed.at(s) = false;
}

/** One rebuildServer() run, owned by its current stripe's I/O. */
struct ZebraVolume::Rebuild
{
    unsigned server;
    std::uint64_t stripe;
    sim::Event done;
};

void
ZebraVolume::rebuildServer(unsigned s, sim::Event done)
{
    if (failed.at(s))
        sim::fatal("ZebraVolume: restoreServer(%u) before rebuild", s);
    rebuildStripe(std::make_unique<Rebuild>(Rebuild{s, 0, std::move(done)}));
}

void
ZebraVolume::rebuildStripe(std::unique_ptr<Rebuild> r)
{
    if (r->stripe >= flushedStripes) {
        ++_rebuilds;
        if (r->done)
            r->done();
        return;
    }
    const unsigned s = r->server;
    const std::uint64_t frag = cfg.fragmentBytes;
    const std::uint64_t at = r->stripe++ * frag;
    // Functional reconstruction: XOR every other fragment.
    std::vector<std::uint8_t> rebuilt(frag, 0);
    std::vector<std::uint8_t> tmp(frag);
    for (unsigned j = 0; j < numServers(); ++j) {
        if (j == s)
            continue;
        servers[j]->fs().read(fragIno[j], at, {tmp.data(), tmp.size()});
        raid::xorInto(rebuilt.data(), tmp.data(), frag);
    }
    // Timed: read the survivors, write the rebuilt fragment, then go
    // on with the next stripe.
    const sim::Join survivors(
        numServers() - 1, [this, s, at, r = std::move(r),
                           rebuilt = std::move(rebuilt)]() mutable {
            servers[s]->fileWriteData(
                fragIno[s], at, {rebuilt.data(), rebuilt.size()},
                [this, r = std::move(r)]() mutable {
                    rebuildStripe(std::move(r));
                });
        });
    for (unsigned j = 0; j < numServers(); ++j) {
        if (j != s)
            servers[j]->fileRead(fragIno[j], at, frag,
                                 [survivors](server::Status) {
                                     survivors();
                                 });
    }
}

void
ZebraVolume::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("zebra.appended_bytes", logicalSize);
    reg.add("zebra.stripes", _stripesWritten);
    reg.add("zebra.degraded_reads", _degradedReads);
    reg.add("zebra.rebuilds", _rebuilds);
    reg.add("zebra.parity_bytes", _parityBytes);
}

} // namespace raid2::zebra
