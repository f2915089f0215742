/**
 * @file
 * Ultra Network Technologies ring network model.
 *
 * The Ultranet is the 100 MB/s ring that connects XBUS HIPPI
 * interfaces to supercomputer and workstation clients (Fig 1).  We
 * model the ring as one shared service station; a transfer crosses it
 * as a sim::Pipeline stage between the endpoints' own stages (the
 * server's HIPPI port, the client's NIC).
 */

#ifndef RAID2_NET_ULTRANET_HH
#define RAID2_NET_ULTRANET_HH

#include <string>

#include "sim/service.hh"

namespace raid2::net {

/** Shared ring fabric. */
class UltranetFabric
{
  public:
    /** The ring's byte rate. */
    static constexpr double ringMBs = 100.0;

    UltranetFabric(sim::EventQueue &eq, const std::string &name)
        : _ring(eq, name + ".ring", sim::Service::Config{ringMBs, 0, 1})
    {
    }

    sim::Service &ring() { return _ring; }

    /** Register the shared ring stage's stats under "<prefix>.ring". */
    void
    registerStats(sim::StatsRegistry &reg, const std::string &prefix) const
    {
        _ring.registerStats(reg, prefix + ".ring");
    }

  private:
    sim::Service _ring;
};

} // namespace raid2::net

#endif // RAID2_NET_ULTRANET_HH
