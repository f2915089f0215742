/**
 * @file
 * XBUS parity computation engine (timing side).
 *
 * One of the eight XBUS ports is "a parity computation engine" (§2.2).
 * A parity pass streams source blocks out of XBUS memory through the
 * engine and streams the XOR result back, so it occupies both the
 * engine's port and the memory system for (inputs + output) bytes.
 * The functional XOR lives in raid/parity.hh; this class only models
 * time.
 */

#ifndef RAID2_XBUS_PARITY_ENGINE_HH
#define RAID2_XBUS_PARITY_ENGINE_HH

#include <cstdint>

#include "config/calibration.hh"
#include "sim/service.hh"

namespace raid2::xbus {

/** Timed XOR engine attached to one XBUS port. */
class ParityEngine
{
  public:
    ParityEngine(sim::Service &port, sim::Service &memory);

    /**
     * Run a parity pass over @p input_bytes of source data producing
     * @p output_bytes of parity; @p done fires at completion.
     */
    void pass(std::uint64_t input_bytes, std::uint64_t output_bytes,
              sim::Event done);

    /** @{ By reference: the board registers them as "xbus.parity.*". */
    const std::uint64_t &passes() const { return _passes; }
    const std::uint64_t &bytesProcessed() const { return _bytes; }
    /** @} */

  private:
    sim::Service &port;
    sim::Service &memory;
    std::uint64_t _passes = 0;
    std::uint64_t _bytes = 0;
};

} // namespace raid2::xbus

#endif // RAID2_XBUS_PARITY_ENGINE_HH
