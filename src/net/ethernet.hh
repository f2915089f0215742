/**
 * @file
 * 10 Mb/s Ethernet link model.
 *
 * The host workstation's Ethernet serves "standard mode" requests
 * (§2.1.1).  Transfers are packetized at the MTU with a ~0.5 ms
 * per-packet cost (§2.3: "an Ethernet packet takes approximately 0.5
 * millisecond to transfer" — we charge it as fixed per-packet overhead
 * on top of the 1.25 MB/s wire rate).
 */

#ifndef RAID2_NET_ETHERNET_HH
#define RAID2_NET_ETHERNET_HH

#include <cstdint>
#include <string>

#include "config/calibration.hh"
#include "sim/service.hh"

namespace raid2::net {

/** A shared 10 Mb/s Ethernet segment. */
class EthernetLink
{
  public:
    EthernetLink(sim::EventQueue &eq, std::string name);

    /** Send @p bytes as a train of MTU-sized packets. */
    void send(std::uint64_t bytes, sim::Event done);

    sim::Service &wire() { return _wire; }
    std::uint64_t packets() const { return _packets; }

    /** Register wire + packet stats under @p prefix. */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    sim::EventQueue &eq;
    std::string _name;
    sim::Service _wire;
    std::uint64_t _packets = 0;
};

} // namespace raid2::net

#endif // RAID2_NET_ETHERNET_HH
