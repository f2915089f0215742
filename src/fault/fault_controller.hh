/**
 * @file
 * Orchestrated fault injection for the RAID-II simulator.
 *
 * The FaultController replays a FaultPlan into a running system
 * through the small hook points the layers expose: DiskModel::stall,
 * ScsiString::injectHang, XbusBoard::injectPortError,
 * HippiChannel::injectLinkDown, and SimArray's failDisk and
 * injectLatent.  It only injects and counts: the SimArray owns the
 * media state (failed disks, the latent-defect map) and carries every
 * change into its functional twin, if one is attached.
 *
 * Injection preserves the recoverability invariant documented in
 * RaidArray: events that *would* destroy data — a second disk death
 * while degraded, a latent error surfacing while a disk it is rebuilt
 * from (RaidLayout::forEachSource) has failed or is defective over
 * the same range, or latents outstanding on a dying disk's sources
 * (the rebuild would be unable to reconstruct those stripes) — are
 * accounted as data-loss events instead of being injected, which is
 * exactly the quantity a Monte Carlo MTTDL campaign estimates.
 */

#ifndef RAID2_FAULT_FAULT_CONTROLLER_HH
#define RAID2_FAULT_FAULT_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "fault/fault_plan.hh"
#include "net/hippi.hh"
#include "raid/sim_array.hh"
#include "sim/event_queue.hh"
#include "sim/stats_registry.hh"

namespace raid2::fault {

/** Deterministic fault injector. */
class FaultController
{
  public:
    /** Injection targets.  @c array is required; @c hippi optional. */
    struct Hooks
    {
        raid::SimArray *array = nullptr;
        /** HIPPI channel for link-drop events. */
        net::HippiChannel *hippi = nullptr;
    };

    FaultController(sim::EventQueue &eq, std::string name, Hooks hooks);

    /** @{ The plan.  start() schedules every event; call once. */
    void setPlan(FaultPlan plan);
    const FaultPlan &plan() const { return _plan; }
    void start();
    /** @} */

    /** Invoked after a whole-disk failure is injected (the
     *  RecoveryManager hangs its spare allocation off this). */
    void onDiskFail(std::function<void(unsigned disk)> cb)
    {
        _onDiskFail = std::move(cb);
    }

    /** Transfer/network SilentCorruption events are delivered here
     *  (the server arms one-shot flips in its integrity layer); media
     *  events are applied to the array's functional twin directly.
     *  Without a listener, non-media corruption events are
     *  suppressed. */
    void onSilentCorruption(std::function<void(const FaultEvent &)> cb)
    {
        _onCorruption = std::move(cb);
    }

    /** @{ Campaign accounting. */
    std::uint64_t injected(FaultKind k) const
    {
        return _injected[static_cast<std::size_t>(k)];
    }
    std::uint64_t injectedTotal() const;
    /** Would-be unrecoverable situations, by cause. */
    std::uint64_t dataLossEvents() const { return _dataLossEvents; }
    std::uint64_t doubleFailures() const { return _doubleFailures; }
    std::uint64_t rebuildExposedRanges() const
    {
        return _rebuildExposed;
    }
    std::uint64_t latentsWhileDegraded() const
    {
        return _latentWhileDegraded;
    }
    /** @} */

    /** Register campaign stats under "fault.*", including the array's
     *  latent-map and repair counters. */
    void registerStats(sim::StatsRegistry &reg) const;

    const std::string &name() const { return _name; }

  private:
    void handleEvent(const FaultEvent &e);
    void injectDiskFail(unsigned d);
    void injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes);
    void injectSilentCorruption(const FaultEvent &e);
    void trace(const FaultEvent &e, const char *label) const;

    sim::EventQueue &eq;
    std::string _name;
    Hooks hooks;
    FaultPlan _plan;
    bool _started = false;

    std::function<void(unsigned)> _onDiskFail;
    std::function<void(const FaultEvent &)> _onCorruption;

    std::array<std::uint64_t, 7> _injected{};
    std::uint64_t _suppressed = 0;
    std::uint64_t _dataLossEvents = 0;
    std::uint64_t _doubleFailures = 0;
    std::uint64_t _rebuildExposed = 0;
    std::uint64_t _latentWhileDegraded = 0;
    std::uint64_t _latentCollisions = 0;
};

} // namespace raid2::fault

#endif // RAID2_FAULT_FAULT_CONTROLLER_HH
