#include "raid/reconstruct.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::raid {

RebuildJob::RebuildJob(sim::EventQueue &eq_, std::string name,
                       SimArray &array_, unsigned dead_, unsigned window_,
                       sim::Tick inter_stripe_delay)
    : eq(eq_), _name(std::move(name)), array(array_), dead(dead_),
      window(window_), delay(inter_stripe_delay),
      total(array_.layout().numStripes())
{
    if (!array.isFailed(dead))
        sim::fatal("RebuildJob: disk %u is not failed", dead);
    if (window == 0)
        sim::fatal("RebuildJob: zero window");
}

void
RebuildJob::start(sim::Event done_)
{
    done = std::move(done_);
    _startTick = eq.now();
    pump();
}

double
RebuildJob::durationMs() const
{
    const sim::Tick end = _finished ? _endTick : eq.now();
    return sim::ticksToMs(end - _startTick);
}

double
RebuildJob::stripesPerSec() const
{
    const double sec = durationMs() / 1e3;
    return sec > 0 ? static_cast<double>(_stripesDone) / sec : 0.0;
}

void
RebuildJob::pump()
{
    while (inFlight < window && next < total) {
        if (delay > 0) {
            const sim::Tick now = eq.now();
            if (now < nextLaunchAt) {
                // Throttled: resume when the spacing allows the next
                // launch.  One wakeup at a time; pump re-checks.
                if (!wakeupPending) {
                    wakeupPending = true;
                    eq.schedule(nextLaunchAt, [this] {
                        wakeupPending = false;
                        pump();
                    });
                }
                break;
            }
            nextLaunchAt = now + delay;
        }
        rebuildStripe(next++);
    }
    if (inFlight == 0 && next == total && !_finished) {
        _finished = true;
        _endTick = eq.now();
        array.restoreDisk(dead);
        if (done)
            done();
    }
}

void
RebuildJob::rebuildStripe(std::uint64_t stripe)
{
    ++inFlight;
    const sim::Tick launched = eq.now();
    array.rebuildStripe(dead, stripe, [this, launched] {
        if (auto *t = eq.tracer())
            t->complete(_name, "rebuild_stripe", launched, eq.now(),
                        array.layout().unitBytes());
        ++_stripesDone;
        --inFlight;
        pump();
    });
}

} // namespace raid2::raid
