#include "fault/fault_plan.hh"

#include <algorithm>
#include <string_view>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "xbus/xbus_board.hh"

namespace raid2::fault {

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::DiskFail:
        return "disk_fail";
    case FaultKind::LatentError:
        return "latent_error";
    case FaultKind::DiskStall:
        return "disk_stall";
    case FaultKind::ScsiHang:
        return "scsi_hang";
    case FaultKind::XbusPortError:
        return "xbus_port_error";
    case FaultKind::HippiLinkDrop:
        return "hippi_link_drop";
    case FaultKind::SilentCorruption:
        return "silent_corruption";
    }
    return "?";
}

const char *
corruptionSurfaceName(CorruptionSurface s)
{
    switch (s) {
    case CorruptionSurface::Media:
        return "media";
    case CorruptionSurface::TransferRead:
        return "xfer_read";
    case CorruptionSurface::TransferWrite:
        return "xfer_write";
    case CorruptionSurface::Network:
        return "network";
    }
    return "?";
}

bool
corruptionSurfaceFromName(const char *name, CorruptionSurface &out)
{
    for (CorruptionSurface s :
         {CorruptionSurface::Media, CorruptionSurface::TransferRead,
          CorruptionSurface::TransferWrite, CorruptionSurface::Network}) {
        if (std::string_view(name) == corruptionSurfaceName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

FaultPlan &
FaultPlan::diskFail(sim::Tick at, unsigned disk)
{
    events.push_back({at, FaultKind::DiskFail, disk, 0, 0, 0});
    return *this;
}

FaultPlan &
FaultPlan::latent(sim::Tick at, unsigned disk, std::uint64_t off,
                  std::uint64_t bytes)
{
    events.push_back({at, FaultKind::LatentError, disk, off, bytes, 0});
    return *this;
}

FaultPlan &
FaultPlan::diskStall(sim::Tick at, unsigned disk, sim::Tick duration)
{
    events.push_back({at, FaultKind::DiskStall, disk, 0, 0, duration});
    return *this;
}

FaultPlan &
FaultPlan::scsiHang(sim::Tick at, unsigned string, sim::Tick duration)
{
    events.push_back({at, FaultKind::ScsiHang, string, 0, 0, duration});
    return *this;
}

FaultPlan &
FaultPlan::xbusPortError(sim::Tick at, unsigned port, sim::Tick duration)
{
    events.push_back(
        {at, FaultKind::XbusPortError, port, 0, 0, duration});
    return *this;
}

FaultPlan &
FaultPlan::hippiLinkDrop(sim::Tick at, sim::Tick duration)
{
    events.push_back({at, FaultKind::HippiLinkDrop, 0, 0, 0, duration});
    return *this;
}

FaultPlan &
FaultPlan::silentCorruption(sim::Tick at, CorruptionSurface surface,
                            unsigned disk, std::uint64_t off,
                            std::uint64_t bytes)
{
    events.push_back({at, FaultKind::SilentCorruption, disk, off, bytes,
                      0, surface});
    return *this;
}

void
FaultPlan::sortByTime()
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
}

namespace {

constexpr double ticksPerHour = 3600.0 * 1e9;

/** Shortest latent defect (one sector). */
constexpr std::uint64_t latentBytesMin = 512;
/** Uniform transient-outage durations (stalls, hangs, drops). */
constexpr sim::Tick stallMin = sim::msToTicks(50);
constexpr sim::Tick stallMax = sim::msToTicks(500);

/** Exponential inter-arrival times at @p per_hour events per hour,
 *  clipped to the horizon; one call per (class, instance) stream. */
template <typename Emit>
void
poissonStream(sim::Random &rng, double per_hour, sim::Tick horizon,
              const Emit &emit)
{
    if (per_hour <= 0.0)
        return;
    const double mean_ticks = ticksPerHour / per_hour;
    double t = 0.0;
    for (;;) {
        t += rng.exponential(mean_ticks);
        if (t >= static_cast<double>(horizon))
            return;
        emit(static_cast<sim::Tick>(t), rng);
    }
}

} // namespace

FaultPlan
FaultPlan::generate(const CampaignConfig &cfg, std::uint64_t seed)
{
    if (cfg.numDisks == 0)
        sim::panic("FaultPlan::generate: numDisks not set");

    FaultPlan plan;

    // One independent RNG stream per fault class and instance, derived
    // from the seed with fixed offsets: adding or re-rating one class
    // never perturbs the arrivals of another.
    std::uint64_t stream = 0;
    auto rngFor = [&](unsigned instance) {
        return sim::Random(seed ^ (0x9e3779b97f4a7c15ull * ++stream) ^
                           instance);
    };

    for (unsigned d = 0; d < cfg.numDisks; ++d) {
        auto rng = rngFor(d);
        poissonStream(rng, cfg.diskFailsPerHour, cfg.horizon,
                      [&](sim::Tick at, sim::Random &) {
                          plan.diskFail(at, d);
                      });
    }
    for (unsigned d = 0; d < cfg.numDisks; ++d) {
        auto rng = rngFor(d);
        poissonStream(
            rng, cfg.latentsPerHour, cfg.horizon,
            [&](sim::Tick at, sim::Random &r) {
                if (cfg.diskBytes == 0)
                    return;
                std::uint64_t len = r.inRange(latentBytesMin,
                                              cfg.latentBytesMax);
                len = std::max<std::uint64_t>(512, (len / 512) * 512);
                len = std::min(len, cfg.diskBytes);
                const std::uint64_t slots =
                    (cfg.diskBytes - len) / 512 + 1;
                plan.latent(at, d, r.below(slots) * 512, len);
            });
    }
    for (unsigned d = 0; d < cfg.numDisks; ++d) {
        auto rng = rngFor(d);
        poissonStream(rng, cfg.stallsPerHour, cfg.horizon,
                      [&](sim::Tick at, sim::Random &r) {
                          plan.diskStall(
                              at, d, r.inRange(stallMin, stallMax));
                      });
    }
    for (unsigned s = 0; s < cfg.numStrings; ++s) {
        auto rng = rngFor(s);
        poissonStream(rng, cfg.scsiHangsPerHour, cfg.horizon,
                      [&](sim::Tick at, sim::Random &r) {
                          plan.scsiHang(
                              at, s, r.inRange(stallMin, stallMax));
                      });
    }
    for (unsigned p = 0; p < xbus::XbusBoard::numVmePorts; ++p) {
        auto rng = rngFor(p);
        poissonStream(rng, cfg.xbusErrorsPerHour, cfg.horizon,
                      [&](sim::Tick at, sim::Random &r) {
                          plan.xbusPortError(
                              at, p, r.inRange(stallMin, stallMax));
                      });
    }
    {
        auto rng = rngFor(0);
        poissonStream(rng, cfg.hippiDropsPerHour, cfg.horizon,
                      [&](sim::Tick at, sim::Random &r) {
                          plan.hippiLinkDrop(
                              at, r.inRange(stallMin, stallMax));
                      });
    }
    {
        // Appended after every pre-existing class so enabling silent
        // corruption never perturbs the other streams' arrivals.
        auto rng = rngFor(0);
        poissonStream(
            rng, cfg.silentCorruptionsPerHour, cfg.horizon,
            [&](sim::Tick at, sim::Random &r) {
                const double u = r.unit();
                if (u < cfg.corruptionMediaFraction &&
                    cfg.diskBytes > 0) {
                    std::uint64_t len =
                        1 + r.below(std::max<std::uint64_t>(
                                1, cfg.corruptionBytesMax));
                    len = std::min(len, cfg.diskBytes);
                    const std::uint64_t off =
                        r.below(cfg.diskBytes - len + 1);
                    plan.silentCorruption(at, CorruptionSurface::Media,
                                          r.below(cfg.numDisks), off,
                                          len);
                } else if (u < cfg.corruptionMediaFraction +
                                   cfg.corruptionTransferFraction) {
                    plan.silentCorruption(
                        at, r.chance(0.5)
                                ? CorruptionSurface::TransferRead
                                : CorruptionSurface::TransferWrite);
                } else {
                    plan.silentCorruption(at,
                                          CorruptionSurface::Network);
                }
            });
    }

    plan.sortByTime();

    // Cap whole-disk deaths: drop DiskFail events past the limit.
    if (cfg.maxDiskFails != ~0u) {
        unsigned fails = 0;
        std::erase_if(plan.events, [&](const FaultEvent &e) {
            if (e.kind != FaultKind::DiskFail)
                return false;
            return ++fails > cfg.maxDiskFails;
        });
    }
    return plan;
}

} // namespace raid2::fault
