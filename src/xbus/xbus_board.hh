/**
 * @file
 * The XBUS disk array controller board.
 *
 * §2.2/Fig 4: a 4x8 crossbar connects four interleaved 8 MB memory
 * modules to eight 40 MB/s ports: two HIPPI (source/destination), four
 * VME links to Cougar disk controllers, a parity engine, and the VME
 * control link to the host.  We model each port as a rate-limited
 * service stage and the memory system as four parallel servers
 * (aggregate 160 MB/s); a transfer's chunks occupy one port and one
 * memory server, which reproduces the crossbar's conflict structure
 * for the traffic patterns in the paper.
 */

#ifndef RAID2_XBUS_XBUS_BOARD_HH
#define RAID2_XBUS_XBUS_BOARD_HH

#include <array>
#include <memory>
#include <string>

#include "config/calibration.hh"
#include "sim/service.hh"
#include "xbus/buffer_pool.hh"
#include "xbus/parity_engine.hh"

namespace raid2::xbus {

/** One XBUS controller board. */
class XbusBoard
{
  public:
    static constexpr unsigned numVmePorts = 4;

    XbusBoard(sim::EventQueue &eq, std::string name);

    /** Board DRAM (four interleaved modules as parallel servers). */
    sim::Service &memory() { return _memory; }

    /** HIPPI source port (board -> network). */
    sim::Service &hippiSrcPort() { return _hippiSrc; }
    /** HIPPI destination port (network -> board). */
    sim::Service &hippiDstPort() { return _hippiDst; }

    /** VME link to Cougar controller @p idx (0..3). */
    sim::Service &vmePort(unsigned idx);

    /** Port feeding the parity engine. */
    sim::Service &parityPort() { return _parityPort; }

    /** VME control link to the host workstation (slow). */
    sim::Service &hostLink() { return _hostLink; }

    ParityEngine &parity() { return *_parity; }
    BufferPool &buffers() { return _buffers; }

    const std::string &name() const { return _name; }

    /** @{ Stage lists for common directions through a VME port. */
    std::vector<sim::Stage> diskToMemory(unsigned vme_idx);
    std::vector<sim::Stage> memoryToDisk(unsigned vme_idx);
    /** @} */

    /**
     * Fault-injection hook: a parity/handshake error on VME port
     * @p vme_idx costs @p stall ticks of retry before the port moves
     * data again.  Queued transfers ride it out.
     */
    void injectPortError(unsigned vme_idx, sim::Tick stall);

    std::uint64_t portErrors() const { return _portErrors; }

    /** Register every port, the parity engine and the buffer pool
     *  under @p prefix ("<prefix>.port.hippi_src.bytes", ...). */
    void registerStats(sim::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    std::string _name;
    sim::Service _memory;
    sim::Service _hippiSrc;
    sim::Service _hippiDst;
    std::array<std::unique_ptr<sim::Service>, numVmePorts> _vmePorts;
    sim::Service _parityPort;
    sim::Service _hostLink;
    BufferPool _buffers;
    std::unique_ptr<ParityEngine> _parity;
    std::uint64_t _portErrors = 0;
    sim::Tick _portErrorTicks = 0;
};

} // namespace raid2::xbus

#endif // RAID2_XBUS_XBUS_BOARD_HH
