/**
 * @file
 * Background media scrubber.
 *
 * Latent sector errors surface only when the sector is read; on a
 * mostly-idle range they lie in wait until a disk failure makes them
 * unreconstructable (the dominant data-loss mode once arrays grew
 * past a handful of drives — Thomasian, arXiv:1801.08873).  The
 * scrubber sweeps every member disk chunk by chunk through the real
 * timed datapath (so it competes with foreground traffic for the
 * drives, strings and XBUS ports), asks the array's defect map whether
 * the chunk is damaged, and repairs damage from redundancy with one
 * timed SimArray::restoreRange (reconstruct, then rewrite).  The
 * inter-chunk delay is the scrub-rate knob an MTTDL campaign sweeps.
 */

#ifndef RAID2_FAULT_SCRUBBER_HH
#define RAID2_FAULT_SCRUBBER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

namespace raid2::fault {

/** Cyclic background sweep repairing latent defects from redundancy. */
class Scrubber
{
  public:
    struct Config
    {
        /** Bytes verified per scrub I/O. */
        std::uint64_t chunkBytes = 1024 * 1024;
        /** Pause between chunks; the scrub-rate knob (0 = scrub
         *  back-to-back, i.e. as fast as the datapath allows). */
        sim::Tick interChunkDelay = sim::msToTicks(20);
        /** Hold the sweep while the array is degraded (the rebuild
         *  needs the datapath more than the scrubber does). */
        bool pauseWhileDegraded = true;
    };

    Scrubber(sim::EventQueue &eq, std::string name,
             raid::SimArray &array, const Config &cfg);

    /** Begin (or resume) the cyclic sweep. */
    void start();
    /** Stop; pending wakeups are cancelled so the queue can drain. */
    void stop();

    /**
     * Full-verify upgrade: invoked once per scanned chunk with the
     * member-disk extent (disk, offset, length) after the timed read
     * completes.  The server points this at its integrity layer, which
     * checksum-verifies the logical bytes the chunk covers and heals
     * the redundancy (parity recompute / mirror copy) — turning the
     * latent-defect sweep into a silent-corruption sweep as well.
     */
    using VerifyHook =
        std::function<void(unsigned d, std::uint64_t off,
                           std::uint64_t len)>;
    void setVerifyHook(VerifyHook hook) { verifyHook = std::move(hook); }

    /** @{ Statistics. */
    std::uint64_t bytesScanned() const { return _bytesScanned; }
    std::uint64_t rangesRepaired() const { return _rangesRepaired; }
    /** @} */

    /** Register scrub stats under "scrub.*". */
    void registerStats(sim::StatsRegistry &reg) const;

  private:
    void step();
    void finishChunk(unsigned d, std::uint64_t off, std::uint64_t len);
    /** @return false, issuing nothing, if no redundancy is left. */
    bool repairChunk(unsigned d, std::uint64_t off, std::uint64_t len);
    void scheduleNext(sim::Tick delay);
    void advanceCursor(std::uint64_t len);

    sim::EventQueue &eq;
    std::string _name;
    raid::SimArray &array;
    Config cfg;
    VerifyHook verifyHook;

    /** Per-disk extent the sweep covers. */
    std::uint64_t sweepBytes;

    unsigned curDisk = 0;
    std::uint64_t curOff = 0;
    bool _running = false;
    bool chunkInFlight = false;
    sim::EventQueue::EventId wakeup = sim::EventQueue::invalidEvent;

    std::uint64_t _sweeps = 0;
    std::uint64_t _chunksScanned = 0;
    std::uint64_t _bytesScanned = 0;
    std::uint64_t _rangesRepaired = 0;
    std::uint64_t _repairedBytes = 0;
    std::uint64_t _verifyCalls = 0;
};

} // namespace raid2::fault

#endif // RAID2_FAULT_SCRUBBER_HH
