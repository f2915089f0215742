/**
 * @file
 * Fan-in: continue once every part of a fanned-out operation is done.
 *
 * RAID-II's datapath is made of overlapped parts that finish together.
 * A striped request fans out to every drive it touches, a disk write
 * streams over the SCSI string while the drive positions, and a RAID-5
 * update pre-reads every old block before its parity pass.  A Join is
 * the point where such parts meet.  It is built with the number of
 * parts and the continuation, and a copy of it is each part's
 * completion callback; the copies share one count.  The arrival that
 * brings the count to zero runs the continuation there and then,
 * exactly once, so a fan-in adds no event of its own.
 *
 * A join of zero parts never runs its continuation, since no arrival
 * brings the count to zero: a caller whose fan-out may be empty
 * completes it itself.  An arrival after the last panics.  An empty
 * continuation runs nothing.  The count and the continuation are one
 * allocation held only by the copies, so a join still pending when its
 * event queue is destroyed is freed with the callbacks that hold it.
 */

#ifndef RAID2_SIM_JOIN_HH
#define RAID2_SIM_JOIN_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/event.hh"
#include "sim/logging.hh"

namespace raid2::sim {

/** Runs a continuation when the last of a fixed number of parts is
 *  done; copies share one count. */
class Join
{
  public:
    /** A fan-in of @p parts arrivals that then runs @p then. */
    Join(std::size_t parts, Event then)
        : s(std::make_shared<State>(parts, std::move(then)))
    {
    }

    /** One part is done; the last one runs the continuation. */
    void operator()() const
    {
        if (s->left == 0)
            panic("sim::Join: an arrival after the last part");
        if (--s->left == 0 && s->then) {
            // Moved out first, so what the continuation captured is
            // freed when it returns, not when the last copy goes.
            Event then = std::move(s->then);
            then();
        }
    }

  private:
    struct State
    {
        std::size_t left;
        Event then;
    };

    std::shared_ptr<State> s;
};

} // namespace raid2::sim

#endif // RAID2_SIM_JOIN_HH
