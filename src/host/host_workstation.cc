#include "host/host_workstation.hh"

namespace raid2::host {

HostWorkstation::HostWorkstation(sim::EventQueue &eq, std::string name,
                                 const Config &cfg_)
    : _name(std::move(name)), cfg(cfg_),
      _cpu(eq, _name + ".cpu", sim::Service::Config{0.0, 0, 1}),
      _memory(eq, _name + ".memcpy",
              sim::Service::Config{cfg_.copyMBs, 0, 1}),
      _backplane(eq, _name + ".vme",
                 sim::Service::Config{cal::hostBackplaneMBs, 0, 1})
{
}

void
HostWorkstation::chargeIoCompletion(bool through_host_memory, sim::Event done)
{
    sim::Tick cost = cal::hostPerIoCpu;
    if (through_host_memory)
        cost += cal::hostRaid1ExtraPerIo;
    _cpu.submitBusyTime(cost, std::move(done));
}

void
HostWorkstation::copyThroughMemory(std::uint64_t bytes, sim::Event done)
{
    // Each byte crosses the memory system hostCopiesPerByte times.
    _memory.submit(bytes * cal::hostCopiesPerByte, std::move(done));
}

std::vector<sim::Stage>
HostWorkstation::dataPathStages()
{
    // Bulk data: backplane DMA, then the copy passes.  The copy stage
    // sees each byte hostCopiesPerByte times, which we express as a
    // rate reduction so chunk accounting stays in payload bytes.
    const double eff_copy =
        cfg.copyMBs / static_cast<double>(cal::hostCopiesPerByte);
    return {sim::Stage(_backplane), sim::Stage(_memory, eff_copy)};
}

} // namespace raid2::host
