#include "fault/recovery_manager.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::fault {

RecoveryManager::RecoveryManager(sim::EventQueue &eq_, std::string name,
                                 raid::SimArray &array_,
                                 FaultController &faults,
                                 const Config &cfg_)
    : eq(eq_), _name(std::move(name)), array(array_), cfg(cfg_),
      _spares(cfg_.spares)
{
    faults.onDiskFail([this](unsigned d) { diskFailed(d); });
}

void
RecoveryManager::diskFailed(unsigned d)
{
    pending.push_back({d, eq.now()});
    tryStart();
}

void
RecoveryManager::tryStart()
{
    if (attaching || rebuildActive() || pending.empty())
        return;
    if (_spares == 0)
        return; // the pool never refills
    const PendingFailure f = pending.front();
    pending.pop_front();
    --_spares;
    ++_sparesUsed;
    attaching = true;
    eq.scheduleIn(cfg.spareAttachDelay, [this, f] {
        attaching = false;
        startRebuild(f.disk, f.at);
    });
}

void
RecoveryManager::startRebuild(unsigned disk, sim::Tick failed_at)
{
    ++_rebuildsStarted;
    _job = std::make_unique<raid::RebuildJob>(eq, _name, array, disk,
                                              cfg.rebuildWindow,
                                              cfg.rebuildThrottle);
    _job->start([this, disk, failed_at] {
        ++_rebuildsCompleted;
        const double mttr = sim::ticksToMs(eq.now() - failed_at);
        _mttrMs.sample(mttr);
        if (auto *t = eq.tracer())
            t->complete(_name, "rebuild", failed_at, eq.now(), 0);
        if (_onDone)
            _onDone(disk, mttr);
        tryStart();
    });
}

void
RecoveryManager::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("recovery.spares_available", _spares);
    reg.add("recovery.spares_used", _sparesUsed);
    reg.add("recovery.rebuilds_started", _rebuildsStarted);
    reg.add("recovery.rebuilds_completed", _rebuildsCompleted);
    reg.addGauge("recovery.failures_waiting", [this] {
        return static_cast<double>(pending.size());
    });
    reg.add("recovery.mttr_ms", _mttrMs);
    // Live view of the current (or last) rebuild.
    reg.addGauge("recovery.rebuild.active", [this] {
        return rebuildActive() ? 1.0 : 0.0;
    });
    reg.addGauge("recovery.rebuild.stripes_done", [this] {
        return _job ? static_cast<double>(_job->stripesDone()) : 0.0;
    });
    reg.addGauge("recovery.rebuild.stripes_total", [this] {
        return _job ? static_cast<double>(_job->stripesTotal()) : 0.0;
    });
    reg.addGauge("recovery.rebuild.duration_ms", [this] {
        return _job ? _job->durationMs() : 0.0;
    });
    reg.addGauge("recovery.rebuild.stripes_per_sec", [this] {
        return _job ? _job->stripesPerSec() : 0.0;
    });
}

} // namespace raid2::fault
