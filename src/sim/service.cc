#include "sim/service.hh"

#include <algorithm>
#include <memory>
#include <new>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::sim {

Service::Service(EventQueue &eq_, std::string name, const Config &cfg_)
    : eq(eq_), _name(std::move(name)), cfg(cfg_)
{
    if (cfg.servers == 0)
        fatal("Service %s: servers must be >= 1", _name.c_str());
    for (unsigned i = 0; i < cfg.servers; ++i)
        serverFree.push(0);
}

Tick
Service::serviceTime(std::uint64_t bytes, double mb_per_sec) const
{
    const double rate = mb_per_sec > 0.0 ? mb_per_sec : cfg.mbPerSec;
    Tick t = cfg.overhead;
    if (rate > 0.0)
        t += transferTicks(bytes, rate);
    return t;
}

Tick
Service::nextFree() const
{
    return std::max(serverFree.top(), eq.now());
}

void
Service::submit(std::uint64_t bytes, Event done)
{
    submitAtRate(bytes, 0.0, std::move(done));
}

void
Service::submitAtRate(std::uint64_t bytes, double mb_per_sec, Event done)
{
    submitBusyTime(serviceTime(bytes, mb_per_sec), std::move(done));
    _bytesServed += bytes;
}

void
Service::submitBusyTime(Tick service_ticks, Event done)
{
    const Tick start = nextFree();
    const Tick finish = start + service_ticks;
    serverFree.pop();
    serverFree.push(finish);

    ++_requests;
    busy.addBusy(start, finish);
    _queueDelay.sample(ticksToMs(start - eq.now()));

    if (done)
        eq.schedule(finish, std::move(done));
}

void
Service::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    reg.add(prefix + ".bytes", _bytesServed);
    reg.add(prefix + ".requests", _requests);
    reg.add(prefix + ".busy", busy);
    reg.add(prefix + ".queue_delay_ms", _queueDelay);
}

void
Service::resetStats()
{
    _bytesServed = 0;
    _requests = 0;
    busy.reset();
    _queueDelay.reset();
}

/**
 * One Pipeline transfer: its counters, its done callback and, in the
 * same allocation right behind it, its stages.
 */
struct Pipeline::Transfer
{
    std::uint32_t refs = 1;
    std::uint32_t numStages;
    std::uint64_t totalBytes;
    std::uint64_t chunkBytes;
    std::uint64_t chunks;
    /** Chunks fed to stage 0 and chunks submitted to the last stage. */
    std::uint64_t fed = 0;
    std::uint64_t arrived = 0;
    /** With a short last chunk on a multi-server last station, a short
     *  chunk may leave before a whole one that arrived earlier, so
     *  every chunk schedules its completion there and this counts the
     *  ones still to leave. */
    bool perChunk;
    std::uint64_t leftAtLast;
    Event done;

    Stage *
    stages()
    {
        return std::launder(reinterpret_cast<Stage *>(this + 1));
    }
};

Pipeline::Pipeline(const std::vector<Stage> &stages, std::uint64_t bytes,
                   std::uint64_t chunk_bytes, Event done)
{
    if (stages.empty())
        panic("Pipeline with no stages");
    if (chunk_bytes == 0)
        panic("Pipeline with zero chunk size");
    for (const auto &st : stages) {
        if (!st.svc)
            panic("Pipeline with null stage");
    }
    if (bytes == 0)
        bytes = 1; // still pay each stage's fixed overhead
    const std::uint64_t chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
    static_assert(alignof(Stage) <= alignof(Transfer));
    void *mem =
        ::operator new(sizeof(Transfer) + stages.size() * sizeof(Stage));
    t = ::new (mem) Transfer{
        .numStages = static_cast<std::uint32_t>(stages.size()),
        .totalBytes = bytes,
        .chunkBytes = chunk_bytes,
        .chunks = chunks,
        .perChunk = chunks > 1 && bytes % chunk_bytes != 0 &&
                    stages.back().svc->servers() > 1,
        .leftAtLast = chunks,
        .done = std::move(done),
    };
    std::uninitialized_copy(stages.begin(), stages.end(), t->stages());
}

Pipeline::Pipeline(const Pipeline &other) noexcept : t(other.t)
{
    if (t)
        ++t->refs;
}

Pipeline::~Pipeline()
{
    if (t && --t->refs == 0) {
        t->~Transfer();
        ::operator delete(t);
    }
}

void
Pipeline::feed(std::uint64_t bytes) const
{
    Transfer &x = *t;
    const bool whole = bytes == x.chunkBytes;
    if (x.fed == x.chunks || bytes == 0 ||
        (!whole && bytes != x.totalBytes % x.chunkBytes))
        panic("Pipeline: feed of %llu bytes does not fit a %llu-byte "
              "transfer in %llu-byte chunks",
              (unsigned long long)bytes, (unsigned long long)x.totalBytes,
              (unsigned long long)x.chunkBytes);
    ++x.fed;
    hop(*this, 0, bytes);
}

// Each chunk's completion holds one reference and hands it on from
// stage to stage, so a hop costs no reference-count update.
void
Pipeline::hop(Pipeline ref, std::size_t stage, std::uint64_t bytes)
{
    Transfer &x = *ref.t;
    const Stage st = x.stages()[stage];
    if (stage + 1 < x.numStages) {
        st.svc->submitAtRate(bytes, st.mbPerSec,
                             [ref = std::move(ref), stage, bytes]() mutable {
                                 hop(std::move(ref), stage + 1, bytes);
                             });
        return;
    }
    ++x.arrived;
    if (x.perChunk) {
        st.svc->submitAtRate(bytes, st.mbPerSec, [ref = std::move(ref)] {
            Transfer &y = *ref.t;
            if (--y.leftAtLast == 0 && y.done)
                y.done();
        });
    } else if (x.arrived == x.chunks) {
        // The last arrival leaves last; it alone schedules, even
        // without a done callback, so the clock still reaches it.
        st.svc->submitAtRate(bytes, st.mbPerSec, [ref = std::move(ref)] {
            if (ref.t->done)
                ref.t->done();
        });
    } else {
        st.svc->submitAtRate(bytes, st.mbPerSec, nullptr);
    }
}

void
Pipeline::start(const std::vector<Stage> &stages, std::uint64_t bytes,
                std::uint64_t chunk_bytes, Event done)
{
    const Pipeline p(stages, bytes, chunk_bytes, std::move(done));
    // Feed every chunk into stage 0; the Service itself serializes.
    const Transfer &x = *p.t;
    for (std::uint64_t left = x.totalBytes; left > 0;) {
        const std::uint64_t chunk = std::min(left, x.chunkBytes);
        p.feed(chunk);
        left -= chunk;
    }
}

} // namespace raid2::sim
