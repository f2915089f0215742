/**
 * @file
 * HIPPI channel model.
 *
 * §2.2: each XBUS board connects to TMC HIPPI source and destination
 * boards, "each ... designed to sustain 40 megabytes/second ... and
 * bursts of 100 megabytes/second into 32 kilobyte FIFO interfaces".
 * §2.3: "the overhead of sending a HIPPI packet is about 1.1
 * milliseconds, mostly due to setting up the HIPPI and XBUS control
 * registers across the slow VME link"; in loopback the boards move
 * 38.5 MB/s in each direction (Fig 6).
 */

#ifndef RAID2_NET_HIPPI_HH
#define RAID2_NET_HIPPI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/calibration.hh"
#include "sim/service.hh"
#include "xbus/xbus_board.hh"

namespace raid2::net {

/**
 * A unidirectional HIPPI transfer path between a source port and a
 * destination port, with per-packet setup cost.
 */
class HippiChannel
{
  public:
    HippiChannel(sim::EventQueue &eq, std::string name,
                 sim::Service &src_port, sim::Service &dst_port,
                 sim::Tick setup_overhead = cal::hippiSetupOverhead);

    /**
     * Send one HIPPI packet of @p bytes.  @p pre stages run before the
     * source port (e.g. XBUS memory read) and @p post stages after the
     * destination port (e.g. XBUS memory write at the receiver).
     */
    void send(std::uint64_t bytes, std::vector<sim::Stage> pre,
              std::vector<sim::Stage> post, sim::Event done);

    /**
     * Fault-injection hook: the link drops for @p duration ticks.
     * Packets submitted while the link is down are held and re-issued
     * when it comes back (HIPPI is connection-oriented; the sender
     * retries the connection request).  Overlapping drops extend.
     */
    void injectLinkDown(sim::Tick duration);

    /** True while the link is down. */
    bool linkDown() const { return eq.now() < downUntil; }

    /** Packets sent so far. */
    std::uint64_t packets() const { return _packets; }
    std::uint64_t bytesSent() const { return _bytes; }
    std::uint64_t linkDrops() const { return _linkDrops; }
    std::uint64_t deferredSends() const { return _deferredSends; }

    const std::string &name() const { return _name; }

    /** Register packet/byte counters under @p prefix. */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    sim::EventQueue &eq;
    std::string _name;
    sim::Service &srcPort;
    sim::Service &dstPort;
    sim::Tick setup;
    sim::Tick downUntil = 0;
    std::uint64_t _packets = 0;
    std::uint64_t _bytes = 0;
    std::uint64_t _linkDrops = 0;
    std::uint64_t _deferredSends = 0;
    sim::Tick _downTicks = 0;
};

/**
 * The Fig 6 configuration: the board's HIPPI source looped back to its
 * own destination ("Because the network is configured as a loop, there
 * is minimal network protocol overhead").
 */
class HippiLoopback
{
  public:
    explicit HippiLoopback(sim::EventQueue &eq, xbus::XbusBoard &board);

    /** XBUS memory -> HIPPI src -> HIPPI dst -> XBUS memory. */
    void transfer(std::uint64_t bytes, sim::Event done);

    /** The underlying channel (e.g. for fault injection). */
    HippiChannel &channel() { return _channel; }

  private:
    xbus::XbusBoard &board;
    HippiChannel _channel;
};

} // namespace raid2::net

#endif // RAID2_NET_HIPPI_HH
