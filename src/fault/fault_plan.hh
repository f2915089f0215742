/**
 * @file
 * Deterministic fault plans for availability experiments.
 *
 * A FaultPlan is a time-ordered list of fault events — whole-disk
 * deaths, latent sector errors, transient drive stalls, SCSI-string
 * hangs, XBUS port errors and HIPPI link drops — that the
 * FaultController replays into a simulated system.  Plans are either
 * scripted event by event (tests) or generated up front from per-hour
 * rates and a seed (Monte Carlo campaigns); because generation happens
 * before the simulation starts and uses sim::Random exclusively, a
 * campaign is bit-reproducible from (plan config, seed).  The paper
 * defers reliability policy ("Techniques for maximizing reliability
 * are beyond the scope of this paper", §2.3); this is the machinery
 * for studying it anyway.
 */

#ifndef RAID2_FAULT_FAULT_PLAN_HH
#define RAID2_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace raid2::fault {

enum class FaultKind
{
    DiskFail,      ///< whole-disk death (target = disk)
    LatentError,   ///< grown media defect (target = disk, offset/bytes)
    DiskStall,     ///< transient drive timeout (target = disk, duration)
    ScsiHang,      ///< string seized mid-handshake (target = global
                   ///< string index, duration)
    XbusPortError, ///< VME port parity/handshake retry (target = port,
                   ///< duration)
    HippiLinkDrop, ///< connection drop on the HIPPI loop (duration)
    SilentCorruption, ///< undetected bit flip (target/offset/bytes for
                      ///< media; see CorruptionSurface)
};

const char *faultKindName(FaultKind k);

/** Where a SilentCorruption event lands. */
enum class CorruptionSurface
{
    Media,         ///< disk bytes at rest (target = disk, offset/bytes)
    TransferRead,  ///< SCSI/XBUS return path: next device read garbled
    TransferWrite, ///< SCSI/XBUS outbound: next write's landed copy
    Network,       ///< HIPPI payload: next transfer retransmitted
};

const char *corruptionSurfaceName(CorruptionSurface s);
/** Parse @p name; @return false if unknown (out untouched). */
bool corruptionSurfaceFromName(const char *name, CorruptionSurface &out);

/** One scheduled fault. */
struct FaultEvent
{
    sim::Tick at = 0;
    FaultKind kind = FaultKind::DiskFail;
    unsigned target = 0;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    sim::Tick duration = 0;
    /** Only meaningful for FaultKind::SilentCorruption. */
    CorruptionSurface surface = CorruptionSurface::Media;
};

/**
 * A deterministic fault schedule.
 *
 * The chaining helpers script events explicitly; generate() draws them
 * from independent Poisson processes (exponential inter-arrivals, one
 * RNG stream per fault class) so two campaigns with the same config
 * and seed produce byte-identical plans.
 */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    /** @{ Scripted-plan helpers (return *this for chaining). */
    FaultPlan &diskFail(sim::Tick at, unsigned disk);
    FaultPlan &latent(sim::Tick at, unsigned disk, std::uint64_t off,
                      std::uint64_t bytes);
    FaultPlan &diskStall(sim::Tick at, unsigned disk, sim::Tick duration);
    FaultPlan &scsiHang(sim::Tick at, unsigned string,
                        sim::Tick duration);
    FaultPlan &xbusPortError(sim::Tick at, unsigned port,
                             sim::Tick duration);
    FaultPlan &hippiLinkDrop(sim::Tick at, sim::Tick duration);
    /** Media: garble @p bytes at @p off of disk @p disk.  Transfer /
     *  network surfaces ignore disk/off and arm one-shot flips. */
    FaultPlan &silentCorruption(sim::Tick at, CorruptionSurface surface,
                                unsigned disk = 0, std::uint64_t off = 0,
                                std::uint64_t bytes = 1);
    /** @} */

    /** Stable-sort events by time (generation emits per-class streams;
     *  the controller wants one timeline). */
    void sortByTime();

    /** Rates and shapes for stochastic generation.  Rates are per hour
     *  of simulated time; a rate of 0 disables the class. */
    struct CampaignConfig
    {
        sim::Tick horizon = sim::secToTicks(3600);
        unsigned numDisks = 0;           ///< required
        std::uint64_t diskBytes = 0;     ///< latent placement space
        unsigned numStrings = 0;         ///< global string count

        double diskFailsPerHour = 0.0;   ///< per disk
        double latentsPerHour = 0.0;     ///< per disk
        double stallsPerHour = 0.0;      ///< per disk
        double scsiHangsPerHour = 0.0;   ///< per string
        double xbusErrorsPerHour = 0.0;  ///< per port
        double hippiDropsPerHour = 0.0;
        double silentCorruptionsPerHour = 0.0; ///< per array

        /** Latent defects cover [512, max] bytes, 512-aligned. */
        std::uint64_t latentBytesMax = 8 * 1024;
        /** Media corruption runs cover [1, corruptionBytesMax] bytes. */
        std::uint64_t corruptionBytesMax = 64;
        /** Surface mix for generated corruption: media at rest vs
         *  in-flight transfers; the remainder is network (HIPPI). */
        double corruptionMediaFraction = 0.70;
        double corruptionTransferFraction = 0.20;
        /** Cap on whole-disk deaths across the campaign (a double
         *  failure is a terminal data-loss event; more adds nothing). */
        unsigned maxDiskFails = 2;
    };

    /** Draw a plan from @p cfg; same (cfg, seed) -> identical plan. */
    static FaultPlan generate(const CampaignConfig &cfg,
                              std::uint64_t seed);
};

} // namespace raid2::fault

#endif // RAID2_FAULT_FAULT_PLAN_HH
