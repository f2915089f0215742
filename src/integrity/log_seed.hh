/**
 * @file
 * Checksum-map re-seeding from the on-media log.
 *
 * The ChecksumMap lives in memory, so a crash loses it.  The on-media
 * copy survives: every segment summary carries SummaryEntry::csum for
 * each payload block (since format v2).  seedFromSegments() walks the
 * segment chain exactly like roll-forward recovery — validating each
 * summary's magic and checksum — and re-installs the per-block
 * expectations, so verify-on-read is armed again right after mount.
 * Stale (cleaned, not yet reused) segments still describe their
 * current payload bytes: a segment is only rewritten whole, summary
 * included, so seeding from every valid summary is consistent.
 */

#ifndef RAID2_INTEGRITY_LOG_SEED_HH
#define RAID2_INTEGRITY_LOG_SEED_HH

#include <cstdint>

#include "fs/block_device.hh"
#include "integrity/checksum_map.hh"

namespace raid2::integrity {

/** Re-seed @p map from every valid segment summary on @p dev.
 *  @return payload blocks whose checksum was installed. */
std::uint64_t seedFromSegments(fs::BlockDevice &dev, ChecksumMap &map);

} // namespace raid2::integrity

#endif // RAID2_INTEGRITY_LOG_SEED_HH
