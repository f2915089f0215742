#include "fault/scrubber.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::fault {

Scrubber::Scrubber(sim::EventQueue &eq_, std::string name,
                   raid::SimArray &array_, const Config &cfg_)
    : eq(eq_), _name(std::move(name)), array(array_), cfg(cfg_)
{
    const auto &layout = array.layout();
    sweepBytes = layout.numStripes() * layout.unitBytes();
    if (cfg.chunkBytes == 0)
        sim::panic("Scrubber %s: zero chunk size", _name.c_str());
}

void
Scrubber::start()
{
    if (_running)
        return;
    _running = true;
    if (!chunkInFlight)
        step();
}

void
Scrubber::stop()
{
    _running = false;
    if (wakeup != sim::EventQueue::invalidEvent) {
        eq.cancel(wakeup);
        wakeup = sim::EventQueue::invalidEvent;
    }
}

void
Scrubber::scheduleNext(sim::Tick delay)
{
    wakeup = eq.scheduleIn(delay, [this] {
        wakeup = sim::EventQueue::invalidEvent;
        step();
    });
}

void
Scrubber::advanceCursor(std::uint64_t len)
{
    curOff += len;
    if (curOff >= sweepBytes) {
        curOff = 0;
        ++curDisk;
        if (curDisk >= array.numDisks()) {
            curDisk = 0;
            ++_sweeps;
        }
    }
}

void
Scrubber::step()
{
    if (!_running)
        return;
    // Hold the sweep while the array is degraded: the rebuild needs
    // the datapath more than the scrubber does, and a failed disk has
    // nothing to verify.
    if (array.media().degraded()) {
        scheduleNext(std::max(cfg.interChunkDelay, sim::msToTicks(5)));
        return;
    }
    const unsigned d = curDisk;
    const std::uint64_t off = curOff;
    const std::uint64_t len =
        std::min<std::uint64_t>(cfg.chunkBytes, sweepBytes - off);
    chunkInFlight = true;
    array.rawDiskRead(d, off, len,
                      [this, d, off, len] { finishChunk(d, off, len); });
}

void
Scrubber::finishChunk(unsigned d, std::uint64_t off, std::uint64_t len)
{
    ++_chunksScanned;
    _bytesScanned += len;
    advanceCursor(len);

    if (verifyHook) {
        ++_verifyCalls;
        verifyHook(d, off, len);
    }

    // Repair needs full redundancy: skip while degraded (the latent
    // stays in the map; a later sweep retries) and on RAID-0 (nothing
    // to repair from, so repairChunk issues nothing).
    if (array.media().hasLatent(d, off, len) && !array.media().degraded() &&
        repairChunk(d, off, len))
        return;
    chunkInFlight = false;
    if (_running)
        scheduleNext(cfg.interChunkDelay);
}

bool
Scrubber::repairChunk(unsigned d, std::uint64_t off, std::uint64_t len)
{
    const sim::Tick started = eq.now();
    return array.restoreRange(d, off, len, [this, d, off, len, started] {
        array.noteRepaired(d, off, len, true);
        ++_rangesRepaired;
        _repairedBytes += len;
        if (auto *t = eq.tracer())
            t->complete(_name, "scrub_repair", started, eq.now(), len);
        chunkInFlight = false;
        if (_running)
            scheduleNext(cfg.interChunkDelay);
    });
}

void
Scrubber::registerStats(sim::StatsRegistry &reg) const
{
    reg.addGauge("scrub.running", [this] { return _running ? 1.0 : 0.0; });
    reg.add("scrub.sweeps_completed", _sweeps);
    reg.add("scrub.chunks_scanned", _chunksScanned);
    reg.add("scrub.bytes_scanned", _bytesScanned);
    reg.add("scrub.ranges_repaired", _rangesRepaired);
    reg.add("scrub.repaired_bytes", _repairedBytes);
    reg.add("scrub.verify_calls", _verifyCalls);
}

} // namespace raid2::fault
