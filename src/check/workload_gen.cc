#include "check/workload_gen.hh"

#include "sim/random.hh"

namespace raid2::check {

namespace {

constexpr unsigned filePool = 8; // names f0..f{n-1}
constexpr unsigned dirPool = 3;  // names d0..d{n-1}
constexpr std::uint64_t maxSmallWrite = 6 * 1024;
constexpr std::uint64_t maxBigWrite = 150 * 1024; // reaches dindirect @1KB
constexpr double pBigWrite = 0.02;
/** Soft cap on total live bytes (stay well under the device). */
constexpr std::uint64_t liveByteBudget = 1200 * 1024;
/** Concurrent snapshots (each pins its live segment set, so keep well
 *  under the segment budget of the small test geometry). */
constexpr unsigned maxLiveSnapshots = 2;

/** Pick a random element of a non-empty vector. */
template <typename T>
const T &
pick(sim::Random &rng, const std::vector<T> &v)
{
    return v[rng.below(v.size())];
}

} // namespace

std::vector<Op>
generateWorkload(std::uint64_t seed, const GenConfig &cfg)
{
    sim::Random rng(seed * 0x9e3779b97f4a7c15ull + 1);
    RefFs model;
    std::vector<Op> ops;
    ops.reserve(cfg.numOps);
    unsigned snapCounter = 0; // unique snapshot names s0, s1, ...

    auto name = [&](const char *stem, unsigned pool) {
        return std::string(stem) + std::to_string(rng.below(pool));
    };
    auto somePath = [&](const char *stem, unsigned pool) {
        // A leaf name under a random existing directory.
        const auto dirs = model.allDirs();
        const std::string &dir = pick(rng, dirs);
        const std::string leaf = name(stem, pool);
        return dir == "/" ? "/" + leaf : dir + "/" + leaf;
    };

    auto emit = [&](Op op) -> bool {
        if (!model.valid(op))
            return false;
        model.apply(op);
        ops.push_back(std::move(op));
        return true;
    };

    while (ops.size() < cfg.numOps) {
        const auto files = model.allFiles();
        const std::uint64_t roll = rng.below(100);
        Op op;

        if (roll < 12) {
            op.kind = Op::Kind::Create;
            op.path = somePath("f", filePool);
        } else if (roll < 17) {
            op.kind = Op::Kind::Mkdir;
            op.path = somePath("d", dirPool);
        } else if (roll < 47) {
            if (files.empty())
                continue;
            op.kind = Op::Kind::Write;
            op.path = pick(rng, files);
            const std::uint64_t size = model.fileSize(op.path);
            // Offset: start, append, overwrite inside, or a hole.
            switch (rng.below(4)) {
              case 0:
                op.off = 0;
                break;
              case 1:
                op.off = size;
                break;
              case 2:
                op.off = size ? rng.below(size) : 0;
                break;
              default:
                op.off = size + rng.below(8 * 1024);
                break;
            }
            const bool big = model.totalBytes() < liveByteBudget / 2 &&
                             rng.chance(pBigWrite);
            const std::uint64_t cap = big ? maxBigWrite : maxSmallWrite;
            // Bias small: square a unit draw.
            const double u = rng.unit();
            op.len = 1 + static_cast<std::uint64_t>(u * u *
                                                    double(cap - 1));
            if (model.totalBytes() + op.len > liveByteBudget)
                continue; // over budget; try another op kind
            op.dataSeed = rng.next();
        } else if (roll < 55) {
            if (files.empty())
                continue;
            op.kind = Op::Kind::Truncate;
            op.path = pick(rng, files);
            const std::uint64_t size = model.fileSize(op.path);
            op.len = rng.below(size + size / 2 + 512);
        } else if (roll < 63) {
            op.kind = Op::Kind::Rename;
            // Source: any file, or occasionally a directory.
            if (!files.empty() && !rng.chance(0.2)) {
                op.path = pick(rng, files);
                op.path2 = rng.chance(0.3) && files.size() > 1
                               ? pick(rng, files) // rename-over
                               : somePath("f", filePool);
            } else {
                const auto dirs = model.allDirs();
                op.path = pick(rng, dirs);
                if (op.path == "/")
                    continue;
                op.path2 = somePath("d", dirPool);
            }
        } else if (roll < 67) {
            if (files.empty())
                continue;
            op.kind = Op::Kind::Link;
            op.path = pick(rng, files);
            op.path2 = somePath("f", filePool);
        } else if (roll < 74) {
            if (files.empty())
                continue;
            op.kind = Op::Kind::Unlink;
            op.path = pick(rng, files);
        } else if (roll < 77) {
            const auto dirs = model.allDirs();
            op.kind = Op::Kind::Rmdir;
            op.path = pick(rng, dirs);
        } else if (roll < 85) {
            op.kind = Op::Kind::Sync;
        } else if (roll < 91) {
            op.kind = Op::Kind::Checkpoint;
        } else if (roll < 93) {
            // Names are globally unique so an op sequence never
            // recreates a deleted snapshot under the same name — the
            // post-crash table oracle stays per-name unambiguous.
            if (model.snapshots().size() >= maxLiveSnapshots)
                continue;
            op.kind = Op::Kind::SnapCreate;
            op.path = "s" + std::to_string(snapCounter++);
        } else if (roll < 97) {
            if (model.snapshots().empty())
                continue;
            const std::vector<std::string> live(
                model.snapshots().begin(), model.snapshots().end());
            op.kind = Op::Kind::SnapDelete;
            op.path = pick(rng, live);
        } else {
            op.kind = Op::Kind::Clean;
            op.len = 2 + rng.below(6);
        }

        emit(std::move(op));
    }

    return ops;
}

} // namespace raid2::check
