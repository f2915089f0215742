/**
 * @file
 * Seeded workload generator for the crash-consistency checker.
 *
 * Emits a sequence of valid file-system operations —
 * create/write/append/truncate/rename/link/unlink/mkdir/rmdir plus
 * sync/checkpoint/clean — bit-reproducible from its seed.  Validity is
 * guaranteed by consulting a RefFs model while generating, so the live
 * lfs::Lfs run never throws.  Size and name distributions are tuned to
 * exercise the interesting machinery: partial blocks, holes, indirect
 * and double-indirect trees, cross-directory renames, rename-over-
 * existing, hard links, and enough rewrite traffic that cleaning and
 * segment-boundary crossings happen naturally on the small test
 * geometry.
 */

#ifndef RAID2_CHECK_WORKLOAD_GEN_HH
#define RAID2_CHECK_WORKLOAD_GEN_HH

#include <cstdint>
#include <vector>

#include "check/ref_fs.hh"

namespace raid2::check {

/** Workload length (the op mix is fixed; default matches the ctest
 *  sweep). */
struct GenConfig
{
    unsigned numOps = 110;
};

/** Generate @p cfg.numOps valid ops, deterministically from @p seed. */
std::vector<Op> generateWorkload(std::uint64_t seed,
                                 const GenConfig &cfg = GenConfig{});

} // namespace raid2::check

#endif // RAID2_CHECK_WORKLOAD_GEN_HH
