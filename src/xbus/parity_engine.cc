#include "xbus/parity_engine.hh"

namespace raid2::xbus {

ParityEngine::ParityEngine(sim::Service &port_, sim::Service &memory_)
    : port(port_), memory(memory_)
{
}

void
ParityEngine::pass(std::uint64_t input_bytes, std::uint64_t output_bytes,
                   sim::Event done)
{
    const std::uint64_t total = input_bytes + output_bytes;
    ++_passes;
    _bytes += total;
    // Source blocks stream from memory through the engine's port; the
    // result streams back through the same port into memory.
    sim::Pipeline::start({sim::Stage(memory), sim::Stage(port)}, total,
                         cal::xbusChunkBytes, std::move(done));
}

} // namespace raid2::xbus
