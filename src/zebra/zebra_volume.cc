#include "zebra/zebra_volume.hh"

#include <algorithm>
#include <cstring>

#include "raid/parity.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::zebra {

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
        fragIno.push_back(srv->createFile(cfg.fragmentPath));
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
ZebraVolume::emitStripe(std::function<void()> done_one)
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

    auto remaining = std::make_shared<unsigned>(0);
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done_one));
    for (unsigned j = 0; j < n; ++j) {
        if (failed[j])
            continue; // the fragment is lost until rebuildServer()
        ++*remaining;
    }
    if (*remaining == 0) {
        eq.scheduleIn(0, [done_ptr] {
            if (*done_ptr)
                (*done_ptr)();
        });
        return;
    }
    for (unsigned j = 0; j < n; ++j) {
        if (failed[j])
            continue;
        servers[j]->fileWriteData(
            fragIno[j], stripe * frag,
            {frags[j].data(), frags[j].size()}, [remaining, done_ptr] {
                if (--*remaining == 0 && *done_ptr)
                    (*done_ptr)();
            });
    }
}

void
ZebraVolume::append(std::span<const std::uint8_t> data,
                    std::function<void()> done)
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
    // Recount properly: each emitStripe consumes one stripe of bytes.
    auto remaining = std::make_shared<unsigned>(stripes);
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    for (unsigned i = 0; i < stripes; ++i) {
        emitStripe([remaining, done_ptr] {
            if (--*remaining == 0 && *done_ptr)
                (*done_ptr)();
        });
    }
}

void
ZebraVolume::flush(std::function<void()> done)
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
                  std::function<void()> done)
{
    if (off + out.size() > logicalSize)
        sim::fatal("ZebraVolume: read beyond the log end");

    const std::uint64_t frag = cfg.fragmentBytes;
    const std::uint64_t sdb = stripeDataBytes();
    const std::uint64_t flushed_bytes = flushedStripes * sdb;

    auto remaining = std::make_shared<std::size_t>(1);
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    auto finish = [remaining, done_ptr] {
        if (--*remaining == 0 && *done_ptr)
            (*done_ptr)();
    };
    auto read_done = [finish](server::Status) { finish(); };

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

        // Timed transfer(s).
        const std::uint64_t file_off = stripe * frag + in_frag;
        const unsigned srv = dataServer(stripe, k);
        if (!failed[srv]) {
            ++*remaining;
            servers[srv]->fileRead(fragIno[srv], file_off, take,
                                   read_done);
        } else {
            for (unsigned j = 0; j < numServers(); ++j) {
                if (j == srv)
                    continue;
                ++*remaining;
                servers[j]->fileRead(fragIno[j], file_off, take,
                                     read_done);
            }
        }
        pos += take;
        left -= take;
    }
    finish(); // drop the guard
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

void
ZebraVolume::rebuildServer(unsigned s, std::function<void()> done)
{
    if (failed.at(s))
        sim::fatal("ZebraVolume: restoreServer(%u) before rebuild", s);

    const std::uint64_t frag = cfg.fragmentBytes;
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    auto step = std::make_shared<std::function<void(std::uint64_t)>>();
    *step = [this, s, frag, done_ptr, step](std::uint64_t stripe) {
        if (stripe >= flushedStripes) {
            ++_rebuilds;
            if (*done_ptr)
                (*done_ptr)();
            return;
        }
        // Functional reconstruction: XOR every other fragment.
        std::vector<std::uint8_t> rebuilt(frag, 0);
        std::vector<std::uint8_t> tmp(frag);
        for (unsigned j = 0; j < numServers(); ++j) {
            if (j == s)
                continue;
            servers[j]->fs().read(fragIno[j], stripe * frag,
                                  {tmp.data(), tmp.size()});
            raid::xorInto(rebuilt.data(), tmp.data(), frag);
        }
        // Timed: read the survivors, write the rebuilt fragment.
        auto remaining =
            std::make_shared<unsigned>(numServers() - 1);
        auto cont = [this, s, stripe, frag, step,
                     rebuilt = std::move(rebuilt),
                     remaining](server::Status) mutable {
            if (--*remaining > 0)
                return;
            servers[s]->fileWriteData(
                fragIno[s], stripe * frag,
                {rebuilt.data(), rebuilt.size()},
                [step, stripe] { (*step)(stripe + 1); });
        };
        for (unsigned j = 0; j < numServers(); ++j) {
            if (j == s)
                continue;
            servers[j]->fileRead(fragIno[j], stripe * frag, frag, cont);
        }
    };
    (*step)(0);
}

void
ZebraVolume::registerStats(sim::StatsRegistry &reg,
                           const std::string &prefix) const
{
    reg.addGauge(prefix + ".appended_bytes", [this] {
        return static_cast<double>(logicalSize);
    });
    reg.addGauge(prefix + ".stripes", [this] {
        return static_cast<double>(_stripesWritten);
    });
    reg.addGauge(prefix + ".degraded_reads", [this] {
        return static_cast<double>(_degradedReads);
    });
    reg.addGauge(prefix + ".rebuilds", [this] {
        return static_cast<double>(_rebuilds);
    });
    reg.addGauge(prefix + ".parity_bytes", [this] {
        return static_cast<double>(_parityBytes);
    });
}

} // namespace raid2::zebra
