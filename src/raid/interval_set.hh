/**
 * @file
 * A set of disjoint byte ranges on one member disk.
 *
 * Both RAID planes keep one per disk for latent media defects (SimArray
 * to know when a timed read needs a repair, RaidArray to know which
 * twin bytes are garbled) and one per disk for the ranges of a failed
 * disk that the rebuild has already written to its replacement.
 * Inserting merges ranges that overlap or touch, so the set stays a
 * sorted list of maximal disjoint ranges.
 */

#ifndef RAID2_RAID_INTERVAL_SET_HH
#define RAID2_RAID_INTERVAL_SET_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

namespace raid2::raid {

/** Disjoint [offset, offset+length) ranges, ordered by offset. */
class IntervalSet
{
  public:
    using Range = std::pair<std::uint64_t, std::uint64_t>; // off, len
    using const_iterator =
        std::map<std::uint64_t, std::uint64_t>::const_iterator;

    /** Add [off, off+bytes), merging with ranges it overlaps or
     *  touches. */
    void
    insert(std::uint64_t off, std::uint64_t bytes)
    {
        std::uint64_t s = off, e = off + bytes;
        auto it = ranges.upper_bound(s);
        if (it != ranges.begin())
            --it;
        while (it != ranges.end() && it->first <= e) {
            const std::uint64_t iend = it->first + it->second;
            if (iend < s) {
                ++it;
                continue;
            }
            s = std::min(s, it->first);
            e = std::max(e, iend);
            it = ranges.erase(it);
        }
        ranges.emplace(s, e - s);
    }

    /** Does any range intersect [off, off+bytes)? */
    bool
    overlaps(std::uint64_t off, std::uint64_t bytes) const
    {
        if (ranges.empty() || bytes == 0)
            return false;
        auto it = ranges.upper_bound(off);
        if (it != ranges.begin()) {
            const auto prev = std::prev(it);
            if (prev->first + prev->second > off)
                return true;
        }
        return it != ranges.end() && it->first < off + bytes;
    }

    /** Is every byte of [off, off+bytes) in the set? */
    bool
    contains(std::uint64_t off, std::uint64_t bytes) const
    {
        if (bytes == 0)
            return true;
        auto it = ranges.upper_bound(off);
        if (it == ranges.begin())
            return false;
        --it;
        return it->first + it->second >= off + bytes;
    }

    /** Remove [off, off+bytes), trimming or splitting the ranges it
     *  cuts.  @return the number of ranges it touched. */
    std::uint64_t
    erase(std::uint64_t off, std::uint64_t bytes)
    {
        if (bytes == 0)
            return 0;
        std::uint64_t touched = 0;
        const std::uint64_t end = off + bytes;
        auto it = ranges.upper_bound(off);
        if (it != ranges.begin())
            --it;
        while (it != ranges.end() && it->first < end) {
            const std::uint64_t istart = it->first;
            const std::uint64_t iend = it->first + it->second;
            if (iend <= off) {
                ++it;
                continue;
            }
            ++touched;
            it = ranges.erase(it);
            if (istart < off)
                ranges.emplace(istart, off - istart);
            if (iend > end)
                it = ranges.emplace(end, iend - end).first;
        }
        return touched;
    }

    /** The parts of the set inside [off, off+bytes), in order. */
    std::vector<Range>
    within(std::uint64_t off, std::uint64_t bytes) const
    {
        std::vector<Range> parts;
        const std::uint64_t end = off + bytes;
        auto it = ranges.upper_bound(off);
        if (it != ranges.begin())
            --it;
        for (; it != ranges.end() && it->first < end; ++it) {
            const std::uint64_t s = std::max(it->first, off);
            const std::uint64_t e = std::min(it->first + it->second, end);
            if (s < e)
                parts.emplace_back(s, e - s);
        }
        return parts;
    }

    /** The parts of [off, off+bytes) outside the set, in order. */
    std::vector<Range>
    gaps(std::uint64_t off, std::uint64_t bytes) const
    {
        std::vector<Range> holes;
        std::uint64_t pos = off;
        for (const auto &[s, len] : within(off, bytes)) {
            if (s > pos)
                holes.emplace_back(pos, s - pos);
            pos = s + len;
        }
        if (pos < off + bytes)
            holes.emplace_back(pos, off + bytes - pos);
        return holes;
    }

    void clear() { ranges.clear(); }
    /** Number of disjoint ranges. */
    std::size_t size() const { return ranges.size(); }
    /** Bytes covered. */
    std::uint64_t
    bytes() const
    {
        std::uint64_t n = 0;
        for (const auto &[s, len] : ranges)
            n += len;
        return n;
    }

    const_iterator begin() const { return ranges.begin(); }
    const_iterator end() const { return ranges.end(); }

    bool operator==(const IntervalSet &) const = default;

  private:
    /** Start offset -> length; disjoint and non-touching. */
    std::map<std::uint64_t, std::uint64_t> ranges;
};

} // namespace raid2::raid

#endif // RAID2_RAID_INTERVAL_SET_HH
