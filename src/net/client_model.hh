/**
 * @file
 * Client workstation model.
 *
 * §3.4: "A SPARCstation 10/51 client on the HIPPI network writes data
 * to RAID-II at 3.1 megabytes per second.  Bandwidth is limited on the
 * SPARCstation because its user-level network interface implementation
 * performs many copy operations."  Reads with the initial polling
 * driver ran at 3.2 MB/s.  The client is therefore modeled as a
 * copy-limited NIC stage plus a fixed per-request software cost.
 */

#ifndef RAID2_NET_CLIENT_MODEL_HH
#define RAID2_NET_CLIENT_MODEL_HH

#include <cstdint>
#include <string>

#include "config/calibration.hh"
#include "sim/service.hh"

namespace raid2::net {

/** A network client with an asymmetric, copy-limited NIC path. */
class ClientModel
{
  public:
    ClientModel(sim::EventQueue &eq, std::string name);

    /** NIC stage for data arriving at the client. */
    sim::Stage rxStage() { return sim::Stage(_nic, cal::clientReadMBs); }
    /** NIC stage for data leaving the client. */
    sim::Stage txStage() { return sim::Stage(_nic, cal::clientWriteMBs); }

    /** Charge the per-request socket/library cost on the client CPU. */
    void chargeRequestCost() { _nic.submitBusyTime(perRequestCost, nullptr); }

    sim::Service &nic() { return _nic; }
    const std::string &name() const { return _name; }

    /** Register the NIC station's stats under "<prefix>.nic". */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Per-request library/socket software cost. */
    static constexpr sim::Tick perRequestCost = sim::msToTicks(0.3);

    std::string _name;
    sim::Service _nic;
};

} // namespace raid2::net

#endif // RAID2_NET_CLIENT_MODEL_HH
