#include "sim/service.hh"

#include <algorithm>
#include <memory>

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
    reg.addGauge(prefix + ".bytes",
                 [this] { return static_cast<double>(_bytesServed); });
    reg.addGauge(prefix + ".requests",
                 [this] { return static_cast<double>(_requests); });
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

namespace {

/** One Pipeline transfer, shared by its chunks' completions. */
struct Transfer
{
    std::vector<Stage> stages;
    Event done;
    std::uint64_t remainingAtLast;
};

void chunkLeft(std::shared_ptr<Transfer> t, std::size_t stage,
               std::uint64_t chunk_bytes);

// Each chunk's completion holds one reference and hands it on from
// stage to stage, so a hop costs no reference-count update.
void
submitChunk(std::shared_ptr<Transfer> t, std::size_t stage,
            std::uint64_t chunk_bytes)
{
    const Stage st = t->stages[stage];
    st.svc->submitAtRate(chunk_bytes, st.mbPerSec,
                         [t = std::move(t), stage, chunk_bytes]() mutable {
                             chunkLeft(std::move(t), stage, chunk_bytes);
                         });
}

void
chunkLeft(std::shared_ptr<Transfer> t, std::size_t stage,
          std::uint64_t chunk_bytes)
{
    if (stage + 1 < t->stages.size()) {
        submitChunk(std::move(t), stage + 1, chunk_bytes);
        return;
    }
    t->remainingAtLast -= std::min(t->remainingAtLast, chunk_bytes);
    if (t->remainingAtLast == 0 && t->done)
        t->done();
}

} // namespace

void
Pipeline::start(const std::vector<Stage> &stages, std::uint64_t bytes,
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
    const auto t = std::make_shared<Transfer>(
        Transfer{stages, std::move(done), bytes});
    // Feed every chunk into stage 0; the Service itself serializes.
    for (std::uint64_t left = bytes; left > 0;) {
        const std::uint64_t this_chunk = std::min(left, chunk_bytes);
        submitChunk(t, 0, this_chunk);
        left -= this_chunk;
    }
}

} // namespace raid2::sim
