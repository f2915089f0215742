#include "fault/fault_controller.hh"

#include <algorithm>

#include "raid/raid_array.hh"
#include "scsi/cougar_controller.hh"
#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::fault {

FaultController::FaultController(sim::EventQueue &eq_, std::string name,
                                 Hooks hooks_)
    : eq(eq_), _name(std::move(name)), hooks(hooks_)
{
    if (!hooks.array)
        sim::panic("FaultController %s: no array", _name.c_str());
}

void
FaultController::setPlan(FaultPlan plan)
{
    if (_started)
        sim::panic("FaultController %s: plan set after start",
                   _name.c_str());
    _plan = std::move(plan);
    _plan.sortByTime();
}

void
FaultController::start()
{
    if (_started)
        sim::panic("FaultController %s: started twice", _name.c_str());
    _started = true;
    for (const FaultEvent &e : _plan.events) {
        eq.schedule(std::max(e.at, eq.now()),
                    [this, e] { handleEvent(e); });
    }
}

void
FaultController::trace(const FaultEvent &e, const char *label) const
{
    if (auto *t = eq.tracer())
        t->complete(_name, label, eq.now(), eq.now() + e.duration,
                    e.bytes);
}

void
FaultController::handleEvent(const FaultEvent &e)
{
    raid::SimArray &array = *hooks.array;
    switch (e.kind) {
    case FaultKind::DiskFail:
        injectDiskFail(e.target);
        return;
    case FaultKind::LatentError:
        injectLatent(e.target, e.offset, e.bytes);
        return;
    case FaultKind::DiskStall: {
        if (e.target >= array.numDisks() || array.isFailed(e.target)) {
            ++_suppressed;
            return;
        }
        array.disk(e.target).stall(e.duration);
        ++_injected[static_cast<std::size_t>(e.kind)];
        trace(e, "disk_stall");
        return;
    }
    case FaultKind::ScsiHang: {
        const unsigned per = scsi::CougarController::numStrings;
        const unsigned total = array.numCougarControllers() * per;
        const unsigned s = e.target % total;
        array.cougar(s / per).string(s % per).injectHang(e.duration);
        ++_injected[static_cast<std::size_t>(e.kind)];
        trace(e, "scsi_hang");
        return;
    }
    case FaultKind::XbusPortError: {
        array.board().injectPortError(
            e.target % xbus::XbusBoard::numVmePorts, e.duration);
        ++_injected[static_cast<std::size_t>(e.kind)];
        trace(e, "xbus_port_error");
        return;
    }
    case FaultKind::HippiLinkDrop: {
        if (!hooks.hippi) {
            ++_suppressed;
            return;
        }
        hooks.hippi->injectLinkDown(e.duration);
        ++_injected[static_cast<std::size_t>(e.kind)];
        trace(e, "hippi_link_drop");
        return;
    }
    case FaultKind::SilentCorruption:
        injectSilentCorruption(e);
        return;
    }
}

void
FaultController::injectSilentCorruption(const FaultEvent &e)
{
    if (e.surface == CorruptionSurface::Media) {
        raid::RaidArray *fn = hooks.array->twin();
        const std::uint64_t span = hooks.array->mediaSpan();
        if (!fn || e.target >= fn->numDisks() ||
            fn->isFailed(e.target) || e.bytes == 0 || e.offset >= span) {
            ++_suppressed;
            return;
        }
        fn->corrupt(e.target, e.offset,
                    std::min(e.bytes, span - e.offset), 0xa5);
        // Deliberately NOT entered in the latent map: the drive
        // reports nothing.  Only checksums (src/integrity/) can tell
        // this copy no longer holds what was written.
        ++_injected[static_cast<std::size_t>(e.kind)];
        trace(e, "silent_corruption_media");
        return;
    }
    if (!_onCorruption) {
        ++_suppressed;
        return;
    }
    _onCorruption(e);
    ++_injected[static_cast<std::size_t>(e.kind)];
    trace(e, e.surface == CorruptionSurface::Network
                 ? "silent_corruption_net"
                 : "silent_corruption_xfer");
}

void
FaultController::injectDiskFail(unsigned d)
{
    raid::SimArray &array = *hooks.array;
    if (d >= array.numDisks() || array.isFailed(d)) {
        ++_suppressed;
        return;
    }
    bool redundant = false;
    array.layout().forEachSource(d, [&](unsigned) { redundant = true; });
    if (!redundant) {
        // No redundancy (RAID-0): the disk's data is simply gone.
        // Account the loss; injecting would leave the simulator unable
        // to serve any read of the dead disk.
        ++_dataLossEvents;
        ++_suppressed;
        return;
    }
    if (array.degraded()) {
        // Second failure before the first rebuild completed: the
        // classic RAID data-loss mode.  The campaign records it; the
        // simulated array soldiers on with the first failure so the
        // run (and its statistics) stay well-defined.
        ++_doubleFailures;
        ++_dataLossEvents;
        if (auto *t = eq.tracer())
            t->complete(_name, "double_failure", eq.now(), eq.now(), 0);
        return;
    }

    // Latent ranges outstanding on the disks the rebuild will read are
    // unreconstructable stripes: each is a data-loss event.  The
    // defects are consumed here (media reallocation on the failed
    // array) so both planes stay recoverable.
    array.layout().forEachSource(d, [&](unsigned o) {
        const std::uint64_t n = array.dropLatents(o);
        _rebuildExposed += n;
        _dataLossEvents += n;
    });
    array.failDisk(d);
    ++_injected[static_cast<std::size_t>(FaultKind::DiskFail)];
    if (auto *t = eq.tracer())
        t->complete(_name, "disk_fail", eq.now(), eq.now(), 0);
    if (_onDiskFail)
        _onDiskFail(d);
}

void
FaultController::injectLatent(unsigned d, std::uint64_t off,
                              std::uint64_t bytes)
{
    raid::SimArray &array = *hooks.array;
    const std::uint64_t span = array.mediaSpan();
    if (d >= array.numDisks() || bytes == 0 || off >= span) {
        ++_suppressed;
        return;
    }
    bytes = std::min(bytes, span - off);
    if (array.isFailed(d)) {
        ++_suppressed;
        return;
    }
    // The defect is data loss when a disk it would be rebuilt from is
    // failed or defective over the same range.  RAID-0 has no such
    // disk: its latent is injected, and reads of it are unrecoverable.
    bool source_failed = false;
    bool collides = false;
    array.layout().forEachSource(d, [&](unsigned o) {
        source_failed = source_failed || array.isFailed(o);
        collides = collides || array.hasLatent(o, off, bytes);
    });
    if (source_failed) {
        // A defect growing while its redundancy is degraded has
        // nothing to repair from.
        ++_latentWhileDegraded;
        ++_dataLossEvents;
        return;
    }
    if (collides) {
        // Overlapping defects on a disk and its source: neither side
        // can reconstruct the other.
        ++_latentCollisions;
        ++_dataLossEvents;
        return;
    }
    array.injectLatent(d, off, bytes);
    ++_injected[static_cast<std::size_t>(FaultKind::LatentError)];
    if (auto *t = eq.tracer())
        t->complete(_name, "latent_error", eq.now(), eq.now(), bytes);
}

std::uint64_t
FaultController::injectedTotal() const
{
    std::uint64_t n = 0;
    for (const auto v : _injected)
        n += v;
    return n;
}

void
FaultController::registerStats(sim::StatsRegistry &reg) const
{
    static const char *kindKeys[] = {"disk_fails", "latent_errors",
                                     "disk_stalls", "scsi_hangs",
                                     "xbus_port_errors",
                                     "hippi_link_drops",
                                     "silent_corruptions"};
    for (std::size_t k = 0; k < _injected.size(); ++k)
        reg.add(std::string("fault.injected.") + kindKeys[k],
                _injected[k]);
    reg.add("fault.suppressed", _suppressed);
    reg.add("fault.data_loss_events", _dataLossEvents);
    reg.add("fault.double_failures", _doubleFailures);
    reg.add("fault.rebuild_exposed_ranges", _rebuildExposed);
    reg.add("fault.latents_while_degraded", _latentWhileDegraded);
    reg.add("fault.latent_collisions", _latentCollisions);
    const raid::SimArray *array = hooks.array;
    reg.addGauge("fault.latent_ranges_outstanding", [array] {
        return static_cast<double>(array->latentRangesOutstanding());
    });
    reg.addGauge("fault.latent_bytes_outstanding", [array] {
        return static_cast<double>(array->latentBytesOutstanding());
    });
    reg.add("fault.read_repaired_ranges", array->readRepairedRanges());
    reg.add("fault.scrub_repaired_ranges", array->scrubRepairedRanges());
    reg.add("fault.repaired_bytes", array->latentRepairedBytes());
}

} // namespace raid2::fault
