#include "disk/disk_model.hh"

#include <cstdlib>
#include <functional>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::disk {

DiskModel::DiskModel(sim::EventQueue &eq_, std::string name,
                     const DiskProfile &profile,
                     std::unique_ptr<Scheduler> sched_)
    : eq(eq_), _name(std::move(name)), prof(profile),
      sched(sched_ ? std::move(sched_) : makeFcfsScheduler())
{
    // Give each drive a distinct rotational phase so an array's
    // rotational latencies don't line up artificially.
    std::size_t h = std::hash<std::string>{}(_name);
    rotPhase = static_cast<Tick>(h % prof.rotationTicks());
}

void
DiskModel::submit(std::uint64_t start_sector, std::uint32_t sectors,
                  bool write, sim::Event done)
{
    if (sectors == 0)
        sim::panic("disk %s: zero-sector request", _name.c_str());
    if (start_sector + sectors > prof.totalSectors())
        sim::panic("disk %s: request [%llu, +%u) beyond capacity %llu",
                   _name.c_str(), (unsigned long long)start_sector, sectors,
                   (unsigned long long)prof.totalSectors());

    DiskRequest req;
    req.startSector = start_sector;
    req.sectors = sectors;
    req.write = write;
    req.done = std::move(done);
    req.submitTick = eq.now();
    sched->push(std::move(req));
    _queueDepth.sample(static_cast<double>(sched->size()) + (busy ? 1 : 0));

    if (!busy)
        startNext();
}

void
DiskModel::submitBytes(std::uint64_t offset, std::uint64_t bytes, bool write,
                       sim::Event done)
{
    // Round outward to whole sectors: the drive always transfers full
    // sectors regardless of the caller's byte range.
    const std::uint64_t first = offset / prof.sectorBytes;
    const std::uint64_t last =
        (offset + bytes + prof.sectorBytes - 1) / prof.sectorBytes;
    submit(first, static_cast<std::uint32_t>(last - first), write,
           std::move(done));
}

void
DiskModel::stall(Tick duration)
{
    const Tick until = eq.now() + duration;
    ++_stalls;
    _stallTicks += duration;
    if (until > stallUntil)
        stallUntil = until;
    if (auto *t = eq.tracer())
        t->complete(_name, "stall", eq.now(), until, 0);
}

void
DiskModel::startNext()
{
    if (sched->empty()) {
        busy = false;
        return;
    }
    if (eq.now() < stallUntil) {
        // Drive is riding out an injected timeout: hold the queue and
        // resume when the stall expires.  One wakeup suffices even if
        // the stall is extended meanwhile — startNext re-checks.
        busy = true;
        if (!stallPending) {
            stallPending = true;
            eq.schedule(stallUntil, [this] {
                stallPending = false;
                startNext();
            });
        }
        return;
    }
    busy = true;

    inService = sched->pop(headSector);
    const DiskRequest &req = inService;
    const Tick start = eq.now();
    Tick positioning = 0;
    const Tick service = computeService(req, start, positioning);
    const Tick finish = start + service;

    ++_requests;
    if (req.write)
        _sectorsWritten += req.sectors;
    else
        _sectorsRead += req.sectors;
    _serviceMs.sample(sim::ticksToMs(service));
    _positionMs.sample(sim::ticksToMs(positioning));
    busyTime.addBusy(start, finish);
    if (auto *t = eq.tracer())
        t->complete(_name, req.write ? "write" : "read", start, finish,
                    std::uint64_t(req.sectors) * prof.sectorBytes);

    eq.schedule(finish, [this] { finishCommand(); });
}

void
DiskModel::finishCommand()
{
    if (!inService.write) {
        readAheadPos = inService.startSector + inService.sectors;
        lastReadDone = eq.now();
    } else {
        // A write invalidates any overlapping read-ahead state.
        readAheadPos = ~std::uint64_t(0);
    }
    // The callback may queue more commands on this drive; the next one
    // takes the in-service slot only after it returns.
    if (inService.done)
        inService.done();
    inService.done.reset();
    startNext();
}

Tick
DiskModel::computeService(const DiskRequest &req, Tick start,
                          Tick &position_out)
{
    std::uint32_t cyl, head, sec;
    prof.decompose(req.startSector, cyl, head, sec);

    Tick t = prof.cmdOverhead;

    // Read-ahead: a strictly sequential read that arrives while the
    // buffered stream is still warm skips seek and rotation entirely.
    const bool seq_read_hit =
        !req.write && prof.trackBufferKiB > 0 &&
        req.startSector == readAheadPos &&
        start - lastReadDone <= 4 * prof.rotationTicks();

    Tick positioning = 0;
    if (seq_read_hit) {
        ++_readAheadHits;
    } else {
        const std::uint32_t dist = cyl > curCylinder ? cyl - curCylinder
                                                     : curCylinder - cyl;
        const Tick seek = prof.seekTicks(dist);

        // Rotational delay: platter angle is a pure function of time.
        const Tick rot = prof.rotationTicks();
        const Tick target_angle = Tick(sec) * prof.sectorTicks();
        const Tick angle_at_arrival = (start + t + seek + rotPhase) % rot;
        Tick rot_delay = (target_angle + rot - angle_at_arrival) % rot;
        positioning = seek + rot_delay;
    }
    t += positioning;
    position_out = positioning;

    // Media transfer: sector time per sector plus a head/track switch
    // at each track boundary crossed (track skew assumed to cover
    // resynchronization).
    const std::uint32_t spt = prof.sectorsPerTrack;
    const std::uint32_t boundaries = (sec + req.sectors - 1) / spt;
    t += Tick(req.sectors) * prof.sectorTicks() +
         Tick(boundaries) * prof.headSwitch;

    // Track head position after the transfer.
    const std::uint64_t end_sector = req.startSector + req.sectors;
    std::uint32_t ecyl, ehead, esec;
    prof.decompose(end_sector == prof.totalSectors() ? end_sector - 1
                                                     : end_sector,
                   ecyl, ehead, esec);
    curCylinder = ecyl;
    headSector = end_sector;

    return t;
}

void
DiskModel::registerStats(sim::StatsRegistry &reg,
                         const std::string &prefix) const
{
    reg.add(prefix + ".requests", _requests);
    reg.add(prefix + ".sectors_read", _sectorsRead);
    reg.add(prefix + ".sectors_written", _sectorsWritten);
    reg.add(prefix + ".readahead_hits", _readAheadHits);
    reg.add(prefix + ".stalls", _stalls);
    reg.addGauge(prefix + ".stall_ms",
                 [this] { return sim::ticksToMs(_stallTicks); });
    reg.add(prefix + ".service_ms", _serviceMs);
    reg.add(prefix + ".position_ms", _positionMs);
    reg.add(prefix + ".queue_depth", _queueDepth);
    reg.add(prefix + ".busy", busyTime);
}

} // namespace raid2::disk
