#include "net/ethernet.hh"

#include <algorithm>
#include <utility>

#include "sim/stats_registry.hh"

namespace raid2::net {

EthernetLink::EthernetLink(sim::EventQueue &eq_, std::string name)
    : eq(eq_), _name(std::move(name)),
      _wire(eq_, _name + ".wire",
            sim::Service::Config{cal::ethernetMBs,
                                 cal::ethernetPacketOverhead, 1})
{
}

void
EthernetLink::send(std::uint64_t bytes, sim::Event done)
{
    std::uint64_t left = std::max<std::uint64_t>(bytes, 1);
    for (; left > cal::ethernetMTU; left -= cal::ethernetMTU) {
        ++_packets;
        _wire.submit(cal::ethernetMTU, nullptr);
    }
    // The last packet schedules its completion even when @p done is
    // empty.
    ++_packets;
    if (!done)
        done = [] {};
    _wire.submit(left, std::move(done));
}

void
EthernetLink::registerStats(sim::StatsRegistry &reg,
                            const std::string &prefix) const
{
    _wire.registerStats(reg, prefix + ".wire");
    reg.add(prefix + ".packets", _packets);
}

} // namespace raid2::net
