#include "raid/sim_array.hh"

#include <algorithm>
#include <memory>

#include "raid/raid_array.hh"
#include "sim/join.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::raid {

SimArray::SimArray(sim::EventQueue &eq_, xbus::XbusBoard &board,
                   std::string name, LayoutConfig layout_cfg,
                   const ArrayTopology &topo_)
    : eq(eq_), _board(board), _name(std::move(name)), topo(topo_)
{
    if (topo.numCougars == 0 ||
        topo.numCougars > xbus::XbusBoard::numVmePorts) {
        sim::fatal("SimArray %s: %u controllers won't fit the XBUS VME "
                   "ports", _name.c_str(), topo.numCougars);
    }

    layout_cfg.numDisks = topo.numDisks();
    _layout = std::make_unique<RaidLayout>(layout_cfg,
                                           topo.profile->capacityBytes());

    for (unsigned c = 0; c < topo.numCougars; ++c) {
        cougars.push_back(std::make_unique<scsi::CougarController>(
            eq, _name + ".cougar" + std::to_string(c)));
    }

    const unsigned n = topo.numDisks();
    for (unsigned i = 0; i < n; ++i) {
        disks.push_back(std::make_unique<disk::DiskModel>(
            eq, _name + ".disk" + std::to_string(i), *topo.profile,
            topo.elevatorScheduling ? disk::makeElevatorScheduler()
                                    : disk::makeFcfsScheduler()));
        auto &ctrl = *cougars[cougarOf(i)];
        auto &str = ctrl.string(stringOf(i));
        str.attach(disks.back().get());
        channels.push_back(std::make_unique<scsi::DiskChannel>(
            *disks.back(), str, ctrl));
    }
    failedDisks.assign(n, false);
    rebuilt.resize(n);
    latents.resize(n);
}

SimArray::~SimArray() = default;

unsigned
SimArray::cougarOf(unsigned d) const
{
    const unsigned g = d / topo.disksPerString;
    return g % topo.numCougars;
}

unsigned
SimArray::stringOf(unsigned d) const
{
    const unsigned g = d / topo.disksPerString;
    return g / topo.numCougars;
}

bool
SimArray::degraded() const
{
    return std::any_of(failedDisks.begin(), failedDisks.end(),
                       [](bool f) { return f; });
}

void
SimArray::failDisk(unsigned d)
{
    failedDisks.at(d) = true;
    rebuilt[d].clear();
    latents[d].clear();
    if (_twin)
        _twin->failDisk(d);
}

void
SimArray::rebuildStripe(unsigned d, std::uint64_t stripe, sim::Event done)
{
    if (!failedDisks.at(d))
        sim::panic("SimArray %s: rebuild of healthy disk %u",
                   _name.c_str(), d);
    const std::uint64_t unit = _layout->unitBytes();
    const std::uint64_t off = stripe * unit;
    const bool locks = _layout->level() == RaidLevel::Raid5;
    auto mark_live = [this, d, stripe, off, unit, locks,
                      done = std::move(done)]() mutable {
        rebuilt[d].insert(off, unit);
        if (_twin)
            _twin->rebuildRange(d, off, unit);
        if (locks)
            unlockStripe(stripe);
        done();
    };
    auto step = [this, d, off, unit,
                 mark_live = std::move(mark_live)]() mutable {
        if (!restoreRange(d, off, unit, std::move(mark_live)))
            sim::fatal("SimArray %s: nothing left to rebuild disk %u from",
                       _name.c_str(), d);
    };
    if (locks)
        lockStripe(stripe, std::move(step));
    else
        step();
}

void
SimArray::restoreDisk(unsigned d)
{
    failedDisks.at(d) = false;
    rebuilt[d].clear();
    if (_twin)
        _twin->rebuildDisk(d);
}

void
SimArray::attachTwin(RaidArray &twin)
{
    if (_twin)
        sim::panic("SimArray %s: twin attached twice", _name.c_str());
    if (twin.numDisks() != numDisks())
        sim::panic("SimArray %s: twin has %u disks, array %u",
                   _name.c_str(), twin.numDisks(), numDisks());
    _twin = &twin;
}

std::uint64_t
SimArray::mediaSpan() const
{
    const std::uint64_t striped =
        _layout->numStripes() * _layout->unitBytes();
    if (!_twin)
        return striped;
    return std::min<std::uint64_t>(striped, _twin->diskBytes());
}

void
SimArray::injectLatent(unsigned d, std::uint64_t off, std::uint64_t bytes)
{
    latents.at(d).insert(off, bytes);
    if (_twin)
        _twin->injectLatent(d, off, bytes);
}

std::uint64_t
SimArray::dropLatents(unsigned d)
{
    IntervalSet &m = latents.at(d);
    if (_twin) {
        for (const auto &[s, len] : m)
            _twin->repairLatent(d, s, len);
    }
    const std::uint64_t n = m.size();
    m.clear();
    return n;
}

void
SimArray::noteRepaired(unsigned d, std::uint64_t off, std::uint64_t bytes,
                       bool by_scrub)
{
    // The caller reports the whole transfer it rewrote (a scrub chunk,
    // a read extent); only the defective parts inside it are repaired
    // in the twin.  Repairing the full span would reconstruct bytes
    // that are latent on *other* disks — a false unrecoverable-range
    // error.
    IntervalSet &m = latents.at(d);
    for (const auto &[s, len] : m.within(off, bytes)) {
        if (_twin && _twin->latentOverlaps(d, s, len))
            _twin->repairLatent(d, s, len);
        _repairedBytes += len;
    }
    (by_scrub ? _scrubRepairs : _readRepairs) += m.erase(off, bytes);
}

std::uint64_t
SimArray::latentRangesOutstanding() const
{
    std::uint64_t n = 0;
    for (const auto &m : latents)
        n += m.size();
    return n;
}

std::uint64_t
SimArray::latentBytesOutstanding() const
{
    std::uint64_t n = 0;
    for (const auto &m : latents)
        n += m.bytes();
    return n;
}

unsigned
SimArray::sourcesLeft(unsigned d) const
{
    unsigned n = 0;
    bool lost = false;
    _layout->forEachSource(d, [&](unsigned s) {
        ++n;
        lost = lost || failedDisks[s];
    });
    return lost ? 0 : n;
}

bool
SimArray::reconstruct(unsigned d, std::uint64_t off, std::uint64_t bytes,
                      sim::Event done)
{
    const unsigned n = sourcesLeft(d);
    if (n == 0)
        return false;
    // A mirror is copied; parity levels XOR the same range of every
    // source in one pass.
    const sim::Join join(
        n, _layout->level() == RaidLevel::Raid1
               ? sim::Event(std::move(done))
               : sim::Event([this, bytes, n,
                             done = std::move(done)]() mutable {
                     _board.parity().pass(bytes * n, bytes, std::move(done));
                 }));
    _layout->forEachSource(
        d, [&](unsigned s) { rawDiskRead(s, off, bytes, join); });
    return true;
}

bool
SimArray::restoreRange(unsigned d, std::uint64_t off, std::uint64_t bytes,
                       sim::Event then)
{
    return reconstruct(
        d, off, bytes, [this, d, off, bytes, then = std::move(then)]() mutable {
            rawDiskWrite(d, off, bytes, std::move(then));
        });
}

void
SimArray::rawDiskRead(unsigned d, std::uint64_t disk_offset,
                      std::uint64_t bytes, sim::Event done)
{
    channels.at(d)->read(disk_offset, bytes,
                         _board.diskToMemory(cougarOf(d)), std::move(done));
}

void
SimArray::rawDiskWrite(unsigned d, std::uint64_t disk_offset,
                       std::uint64_t bytes, sim::Event done)
{
    channels.at(d)->write(disk_offset, bytes,
                          _board.memoryToDisk(cougarOf(d)), std::move(done));
}

void
SimArray::issueExtentRead(const DiskExtent &e, sim::Event done)
{
    unsigned d = e.disk;
    // Balance mirror reads by alternating stripe rows.
    if (_layout->level() == RaidLevel::Raid1 &&
        (e.diskOffset / _layout->unitBytes()) % 2 == 1 &&
        live(_layout->mirrorDisk(d), e.diskOffset, e.bytes))
        d = _layout->mirrorDisk(d);
    // Only the extent's own disk can be dead here: a mirror is chosen
    // only while live.
    if (!live(d, e.diskOffset, e.bytes)) {
        issueDegradedRead(e, std::move(done));
        return;
    }
    if (hasLatent(d, e.diskOffset, e.bytes)) {
        issueLatentRepairRead(e, d, std::move(done));
        return;
    }
    channels[d]->read(e.diskOffset, e.bytes,
                      _board.diskToMemory(cougarOf(d)), std::move(done));
}

void
SimArray::issueLatentRepairRead(const DiskExtent &e, unsigned d,
                                sim::Event done)
{
    const std::uint64_t off = e.diskOffset;
    const std::uint64_t bytes = e.bytes;

    if (_layout->level() == RaidLevel::Raid0) {
        // No redundancy: the error is reported, not repaired.  Account
        // for it and complete (the request "fails fast").
        ++_unrecoverableReads;
        eq.scheduleIn(0, std::move(done));
        return;
    }

    ++_latentRepairReads;
    _latentRepairBytes += bytes;

    // The drive itself spends a media pass discovering the error
    // (retries, then reports unrecoverable) before recovery starts.
    auto after_attempt = [this, d, off, bytes,
                          done = std::move(done)]() mutable {
        if (auto *t = eq.tracer())
            t->complete(_name, "latent_repair", eq.now(), eq.now(), bytes);
        if (sourcesLeft(d) == 0) {
            ++_unrecoverableReads;
            if (done)
                done();
            return;
        }
        // Rewrite the reconstructed range in place, clearing the
        // defect, then note the repair.
        restoreRange(d, off, bytes,
                     [this, d, off, bytes, done = std::move(done)]() mutable {
                         noteRepaired(d, off, bytes, false);
                         if (done)
                             done();
                     });
    };
    disks[d]->submitBytes(off, bytes, false, std::move(after_attempt));
}

void
SimArray::issueExtentWrite(const DiskExtent &e, sim::Event done)
{
    const unsigned d = e.disk;
    if (failedDisks[d] && !rebuilt[d].overlaps(e.diskOffset, e.bytes)) {
        // Ahead of the rebuild a failed disk takes no write (the data
        // is covered by parity / the mirror, and the rebuild will
        // reconstruct it); complete immediately.  Behind it the write
        // goes to the replacement, which must not go stale.
        eq.scheduleIn(0, std::move(done));
        return;
    }
    channels[d]->write(e.diskOffset, e.bytes,
                       _board.memoryToDisk(cougarOf(d)), std::move(done));
}

void
SimArray::issueDegradedRead(const DiskExtent &e, sim::Event done)
{
    ++_degradedReads;
    _degradedBytes += e.bytes;
    if (!reconstruct(e.disk, e.diskOffset, e.bytes, std::move(done)))
        sim::fatal("SimArray %s: disk %u failed and %s has nothing left "
                   "to rebuild it from", _name.c_str(), e.disk,
                   raidLevelName(_layout->level()));
}

void
SimArray::read(std::uint64_t off, std::uint64_t len, sim::Event done)
{
    ++_reads;
    _bytesRead += len;
    const sim::Tick start = eq.now();

    const auto extents = _layout->mapRange(off, len);
    const sim::Join finish(extents.size(), [this, start, len,
                                            done = std::move(done)]() mutable {
        _readMs.sample(sim::ticksToMs(eq.now() - start));
        if (auto *t = eq.tracer())
            t->complete(_name, "array_read", start, eq.now(), len);
        if (done)
            done();
    });
    for (const auto &e : extents)
        issueExtentRead(e, finish);
}

void
SimArray::lockStripe(std::uint64_t stripe, sim::Event run)
{
    auto [it, fresh] = stripeLocks.try_emplace(stripe);
    if (fresh) {
        run();
        return;
    }
    ++_stripeLockWaits;
    const sim::Tick queued = eq.now();
    it->second.push_back([this, queued, run = std::move(run)]() mutable {
        _stripeLockWaitMs.sample(sim::ticksToMs(eq.now() - queued));
        run();
    });
}

void
SimArray::unlockStripe(std::uint64_t stripe)
{
    auto it = stripeLocks.find(stripe);
    if (it == stripeLocks.end())
        sim::panic("unlockStripe: stripe %llu not locked",
                   (unsigned long long)stripe);
    if (it->second.empty()) {
        stripeLocks.erase(it);
        return;
    }
    auto next = std::move(it->second.front());
    it->second.pop_front();
    next();
}

SimArray::WritePlan
SimArray::rangePlan(std::uint64_t off, std::uint64_t len) const
{
    WritePlan plan;
    const RaidLevel level = _layout->level();
    for (const DiskExtent &e : _layout->mapRange(off, len)) {
        plan.writes.push_back(e);
        if (level == RaidLevel::Raid1) {
            DiskExtent m = e;
            m.disk = _layout->mirrorDisk(e.disk);
            plan.writes.push_back(m);
        }
    }
    if (level == RaidLevel::Raid3) {
        // The parity disk takes the data disks' row extent; parity is
        // computed on the fly as the data streams through the engine.
        const DiskExtent &row = plan.writes.front();
        plan.passIn = len;
        plan.passOut = row.bytes;
        plan.writes.push_back(
            DiskExtent{_layout->parityDisk(0), row.diskOffset, row.bytes});
    }
    return plan;
}

SimArray::WritePlan
SimArray::stripePlan(const StripeSpan &s) const
{
    const std::uint64_t unit = _layout->unitBytes();
    WritePlan plan;
    std::vector<bool> rewritten(_layout->dataUnitsPerStripe(), false);
    _layout->forEachPiece(s.logicalOffset, s.bytes,
                          [&](unsigned k, const DiskExtent &e) {
                              plan.writes.push_back(e);
                              rewritten[k] = e.bytes == unit;
                          });
    plan.passOut = unit;
    switch (s.update) {
      case StripeUpdate::Full:
        plan.passIn = s.bytes;
        break;
      case StripeUpdate::ReadModifyWrite:
        plan.reads = plan.writes;
        plan.reads.push_back(_layout->parityExtent(s.stripe));
        plan.passIn = 2 * s.bytes + unit;
        break;
      case StripeUpdate::ReconstructWrite:
        for (unsigned k = 0; k < rewritten.size(); ++k) {
            if (!rewritten[k])
                plan.reads.push_back(
                    _layout->dataExtent(s.stripe, k, 0, unit));
        }
        plan.passIn = _layout->stripeDataBytes();
        break;
    }
    plan.writes.push_back(_layout->parityExtent(s.stripe));
    return plan;
}

void
SimArray::runWrite(WritePlan plan, sim::Event done)
{
    auto do_writes = [this, writes = std::move(plan.writes),
                      done = std::move(done)]() mutable {
        const sim::Join finish(writes.size(), std::move(done));
        for (const auto &e : writes)
            issueExtentWrite(e, finish);
    };

    auto do_pass = [this, in = plan.passIn, out = plan.passOut,
                    do_writes = std::move(do_writes)]() mutable {
        if (in == 0)
            do_writes();
        else
            _board.parity().pass(in, out, std::move(do_writes));
    };

    if (plan.reads.empty()) {
        do_pass();
        return;
    }
    const sim::Join on_read(plan.reads.size(), std::move(do_pass));
    for (const auto &e : plan.reads)
        issueExtentRead(e, on_read);
}

void
SimArray::write(std::uint64_t off, std::uint64_t len, sim::Event done)
{
    ++_writes;
    _bytesWritten += len;
    const sim::Tick start = eq.now();

    auto record = [this, start, len, done = std::move(done)]() mutable {
        _writeMs.sample(sim::ticksToMs(eq.now() - start));
        if (auto *t = eq.tracer())
            t->complete(_name, "array_write", start, eq.now(), len);
        if (done)
            done();
    };

    // No Level 0/1/3 write pre-reads parity, so none takes a lock.
    if (_layout->level() != RaidLevel::Raid5) {
        runWrite(rangePlan(off, len), std::move(record));
        return;
    }

    const auto spans = _layout->mapStripes(off, len);
    const sim::Join finish(spans.size(), std::move(record));
    for (const StripeSpan &s : spans) {
        // Serialize on the stripe: the read-modify-write and
        // reconstruct-write sequences must see a stable parity unit.
        lockStripe(s.stripe, [this, s, finish] {
            switch (s.update) {
              case StripeUpdate::Full: ++_fullStripes; break;
              case StripeUpdate::ReadModifyWrite: ++_rmwStripes; break;
              case StripeUpdate::ReconstructWrite: ++_rwStripes; break;
            }
            runWrite(stripePlan(s), [this, stripe = s.stripe, finish] {
                unlockStripe(stripe);
                finish();
            });
        });
    }
}

void
SimArray::registerStats(sim::StatsRegistry &reg) const
{
    reg.add("raid.reads", _reads);
    reg.add("raid.writes", _writes);
    reg.add("raid.bytes_read", _bytesRead);
    reg.add("raid.bytes_written", _bytesWritten);
    reg.add("raid.rmw_stripes", _rmwStripes);
    reg.add("raid.reconstruct_write_stripes", _rwStripes);
    reg.add("raid.full_stripe_writes", _fullStripes);
    reg.add("raid.degraded_reads", _degradedReads);
    reg.add("raid.degraded_bytes", _degradedBytes);
    reg.add("raid.latent_repair_reads", _latentRepairReads);
    reg.add("raid.latent_repair_bytes", _latentRepairBytes);
    reg.add("raid.unrecoverable_reads", _unrecoverableReads);
    reg.add("raid.stripe_lock_waits", _stripeLockWaits);
    reg.add("raid.stripe_lock_wait_ms", _stripeLockWaitMs);
    reg.add("raid.read_ms", _readMs);
    reg.add("raid.write_ms", _writeMs);
    for (std::size_t d = 0; d < disks.size(); ++d)
        disks[d]->registerStats(reg, "disk." + std::to_string(d));
    for (std::size_t c = 0; c < cougars.size(); ++c)
        cougars[c]->registerStats(reg,
                                  "scsi.cougar" + std::to_string(c));
}

} // namespace raid2::raid
