#include "net/ultranet.hh"

#include <utility>

#include "config/calibration.hh"

namespace raid2::net {

UltranetFabric::UltranetFabric(sim::EventQueue &eq_, std::string name,
                               double mb_per_sec, sim::Tick hop_latency)
    : eq(eq_), _name(std::move(name)),
      _ring(eq_, _name + ".ring", sim::Service::Config{mb_per_sec, 0, 1}),
      hopLatency(hop_latency)
{
}

void
UltranetFabric::transfer(std::uint64_t bytes,
                         std::vector<sim::Stage> src_stages,
                         std::vector<sim::Stage> dst_stages,
                         std::function<void()> done)
{
    std::vector<sim::Stage> stages;
    for (auto &st : src_stages)
        stages.push_back(st);
    stages.push_back(sim::Stage(_ring));
    for (auto &st : dst_stages)
        stages.push_back(st);

    auto fire = std::move(done);
    const sim::Tick lat = hopLatency;
    auto &queue = eq;
    sim::Pipeline::start(stages, bytes, cal::xbusChunkBytes,
                         [&queue, lat, fire = std::move(fire)]() mutable {
                             queue.scheduleIn(lat, std::move(fire));
                         });
}

} // namespace raid2::net
