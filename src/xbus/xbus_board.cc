#include "xbus/xbus_board.hh"

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace raid2::xbus {

XbusBoard::XbusBoard(sim::EventQueue &eq, std::string name)
    : _name(std::move(name)),
      _memory(eq, _name + ".mem",
              sim::Service::Config{cal::xbusMemModuleMBs, 0,
                                   cal::xbusMemModules}),
      _hippiSrc(eq, _name + ".hippis",
                sim::Service::Config{cal::hippiPortMBs, 0, 1}),
      _hippiDst(eq, _name + ".hippid",
                sim::Service::Config{cal::hippiPortMBs, 0, 1}),
      _parityPort(eq, _name + ".xor",
                  sim::Service::Config{cal::parityEngineMBs, 0, 1}),
      _hostLink(eq, _name + ".vmelink",
                sim::Service::Config{cal::controlLinkReadMBs, 0, 1}),
      _buffers(eq, _name + ".dram", cal::xbusMemBytes)
{
    for (unsigned i = 0; i < numVmePorts; ++i) {
        // Rate chosen per direction at submit time via Stage override.
        _vmePorts[i] = std::make_unique<sim::Service>(
            eq, _name + ".vme" + std::to_string(i),
            sim::Service::Config{cal::vmePortReadMBs, 0, 1});
    }
    _parity = std::make_unique<ParityEngine>(_parityPort, _memory);
}

sim::Service &
XbusBoard::vmePort(unsigned idx)
{
    if (idx >= numVmePorts)
        sim::panic("XbusBoard %s: bad VME port index %u", _name.c_str(),
                   idx);
    return *_vmePorts[idx];
}

void
XbusBoard::injectPortError(unsigned vme_idx, sim::Tick stall)
{
    sim::Service &port = vmePort(vme_idx);
    ++_portErrors;
    _portErrorTicks += stall;
    port.submitBusyTime(stall, nullptr);
}

void
XbusBoard::registerStats(sim::StatsRegistry &reg,
                         const std::string &prefix) const
{
    _memory.registerStats(reg, prefix + ".memory");
    _hippiSrc.registerStats(reg, prefix + ".port.hippi_src");
    _hippiDst.registerStats(reg, prefix + ".port.hippi_dst");
    for (unsigned i = 0; i < numVmePorts; ++i)
        _vmePorts[i]->registerStats(
            reg, prefix + ".port.vme" + std::to_string(i));
    _parityPort.registerStats(reg, prefix + ".port.parity");
    _hostLink.registerStats(reg, prefix + ".host_link");
    reg.add(prefix + ".parity.passes", _parity->passes());
    reg.add(prefix + ".parity.bytes", _parity->bytesProcessed());
    reg.add(prefix + ".dram.peak_use", _buffers.peakUse());
    reg.add(prefix + ".dram.capacity", _buffers.capacity());
    reg.add(prefix + ".port_errors", _portErrors);
    reg.addGauge(prefix + ".port_error_ms", [this] {
        return sim::ticksToMs(_portErrorTicks);
    });
}

std::vector<sim::Stage>
XbusBoard::diskToMemory(unsigned vme_idx)
{
    return {sim::Stage(vmePort(vme_idx), cal::vmePortReadMBs),
            sim::Stage(_memory)};
}

std::vector<sim::Stage>
XbusBoard::memoryToDisk(unsigned vme_idx)
{
    return {sim::Stage(_memory),
            sim::Stage(vmePort(vme_idx), cal::vmePortWriteMBs)};
}

} // namespace raid2::xbus
