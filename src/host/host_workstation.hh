/**
 * @file
 * Host workstation model (Sun 4/280).
 *
 * §1 is a catalogue of this machine's bottlenecks: kernel-to-user copy
 * operations saturate the memory system at 2.3 MB/s of I/O bandwidth,
 * the VME backplane saturates at 9 MB/s, and request completions cost
 * context switches that cap the small-I/O rate of both prototypes
 * (§2.3).  The model is a CPU service station (per-I/O costs), a copy
 * engine (per-byte memory costs for data that moves through host
 * memory) and a backplane stage.
 */

#ifndef RAID2_HOST_HOST_WORKSTATION_HH
#define RAID2_HOST_HOST_WORKSTATION_HH

#include <cstdint>
#include <string>

#include "config/calibration.hh"
#include "sim/service.hh"

namespace raid2::host {

/** The Sun 4/280 file-server host. */
class HostWorkstation
{
  public:
    struct Config
    {
        /** Rate of one pass through the memory system. */
        double copyMBs;

        Config() : copyMBs(cal::hostCopyMBs) {}
    };

    HostWorkstation(sim::EventQueue &eq, std::string name,
                    const Config &cfg = Config());

    /** CPU station: request handling, context switches. */
    sim::Service &cpu() { return _cpu; }

    /** Memory copy engine (kernel<->user data movement). */
    sim::Service &memoryCopy() { return _memory; }

    /** VME backplane into host memory. */
    sim::Service &backplane() { return _backplane; }

    /**
     * Charge the per-I/O completion cost (context switches + kernel
     * work).  @p through_host_memory adds the RAID-I-style extra cost.
     */
    void chargeIoCompletion(bool through_host_memory, sim::Event done);

    /** Move @p bytes through host memory (cal::hostCopiesPerByte
     *  passes). */
    void copyThroughMemory(std::uint64_t bytes, sim::Event done);

    /** Stage list for bulk data crossing backplane + memory copies. */
    std::vector<sim::Stage> dataPathStages();

    const Config &config() const { return cfg; }

    /** Register cpu/copy/backplane station stats under @p prefix. */
    void
    registerStats(sim::StatsRegistry &reg, const std::string &prefix) const
    {
        _cpu.registerStats(reg, prefix + ".cpu");
        _memory.registerStats(reg, prefix + ".memory_copy");
        _backplane.registerStats(reg, prefix + ".backplane");
    }

  private:
    std::string _name;
    Config cfg;
    sim::Service _cpu;
    sim::Service _memory;
    sim::Service _backplane;
};

} // namespace raid2::host

#endif // RAID2_HOST_HOST_WORKSTATION_HH
