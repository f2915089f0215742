#include "check/shrinker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace raid2::check {

namespace {

/** @{ Where the two program kinds differ: where their ops live, how a
 *  candidate is made valid, and which ops carry a write length. */
std::vector<Op> &
opsOf(std::vector<Op> &ops)
{
    return ops;
}

std::vector<SessionOp> &
opsOf(ServerHistory &hist)
{
    return hist.ops;
}

std::vector<Op>
sanitized(const std::vector<Op> &ops)
{
    return Shrinker::sanitize(ops);
}

ServerHistory
sanitized(const ServerHistory &hist)
{
    return ServerExplorer::sanitize(hist);
}

bool
writes(const Op &op)
{
    return op.kind == Op::Kind::Write;
}

bool
writes(const SessionOp &op)
{
    return op.kind == SessionOp::Kind::PWrite ||
           op.kind == SessionOp::Kind::BurstWrite;
}
/** @} */

template <class P>
Shrinker::Result
ddmin(const P &seed, const Shrinker::Predicate &pred)
{
    Shrinker::Result res;
    P cur = sanitized(seed);

    auto check = [&](const P &cand) -> std::optional<Failure> {
        ++res.attempts;
        return pred(Program(cand));
    };

    auto witness = check(cur);
    if (!witness)
        sim::panic("Shrinker::shrink: seed program does not fail");
    res.witness = *witness;

    // Pass 1: remove chunks, halving the chunk size down to one op.
    for (std::size_t chunk = std::max<std::size_t>(opsOf(cur).size() / 2,
                                                   1);
         ;) {
        bool removed = false;
        for (std::size_t at = 0; at < opsOf(cur).size();) {
            P cand = cur;
            auto &ops = opsOf(cand);
            ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(at),
                      ops.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(at + chunk, ops.size())));
            cand = sanitized(cand);
            if (opsOf(cand).size() < opsOf(cur).size()) {
                if (auto w = check(cand)) {
                    cur = std::move(cand);
                    res.witness = *w;
                    removed = true;
                    continue; // same position, next chunk slid in
                }
            }
            at += chunk;
        }
        if (chunk == 1 && !removed)
            break;
        if (chunk > 1)
            chunk = std::max<std::size_t>(chunk / 2, 1);
    }

    // Pass 2: halve write lengths.  The bytes a write stores have the
    // prefix property in both kinds (patternBytes; the server payload
    // byte depends only on position and inode), so a halved write
    // keeps its first half identical.
    for (std::size_t i = 0; i < opsOf(cur).size(); ++i) {
        if (!writes(opsOf(cur)[i]))
            continue;
        while (opsOf(cur)[i].len > 1) {
            P cand = cur;
            opsOf(cand)[i].len /= 2;
            if (auto w = check(cand)) {
                cur = std::move(cand);
                res.witness = *w;
            } else {
                break;
            }
        }
    }

    res.program = std::move(cur);
    return res;
}

} // namespace

std::vector<Op>
Shrinker::sanitize(const std::vector<Op> &ops)
{
    RefFs model;
    std::vector<Op> out;
    out.reserve(ops.size());
    for (const Op &op : ops) {
        if (!model.valid(op))
            continue;
        model.apply(op);
        out.push_back(op);
    }
    return out;
}

Shrinker::Result
Shrinker::shrink(const Program &prog, const Predicate &pred)
{
    return std::visit([&](const auto &p) { return ddmin(p, pred); },
                      prog);
}

} // namespace raid2::check
