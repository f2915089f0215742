#include "workload/generators.hh"

#include <memory>

#include "sim/logging.hh"

namespace raid2::workload {

Results
ClosedLoopRunner::run(sim::EventQueue &eq, const Config &cfg,
                      const Op &op)
{
    if (cfg.regionBytes == 0)
        sim::fatal("ClosedLoopRunner: regionBytes required");
    if (cfg.requestBytes == 0 || cfg.requestBytes > cfg.regionBytes)
        sim::fatal("ClosedLoopRunner: bad request size");

    struct State
    {
        Config cfg;
        const Op &op;
        sim::EventQueue &eq;
        sim::Random rng;
        std::uint64_t align;
        std::uint64_t slots;
        std::uint64_t total;
        std::uint64_t issued = 0;
        std::uint64_t finished = 0;
        std::uint64_t measuredOps = 0;
        std::uint64_t measuredBytes = 0;
        sim::Tick measureStart = 0;
        sim::Tick lastFinish = 0;
        sim::Distribution latencyMs;
        std::vector<std::uint64_t> cursor; // per-process, sequential

        State(const Config &c, const Op &o, sim::EventQueue &q)
            : cfg(c), op(o), eq(q), rng(c.seed),
              align(c.alignBytes ? c.alignBytes : c.requestBytes),
              slots((c.regionBytes - c.requestBytes) / align + 1),
              total(c.totalOps + c.warmupOps)
        {
        }

        /** Issue process @p p's next request; its completion issues
         *  the one after, so each process keeps one outstanding. */
        void
        next(unsigned p)
        {
            if (issued >= total)
                return;
            ++issued;

            std::uint64_t off;
            if (cfg.sequential) {
                const unsigned slot = cfg.sharedCursor ? 0 : p;
                off = cursor[slot];
                cursor[slot] += cfg.requestBytes;
                if (cursor[slot] + cfg.requestBytes > cfg.regionBytes)
                    cursor[slot] = 0;
            } else {
                off = rng.below(slots) * align;
            }

            const sim::Tick start = eq.now();
            op(off, cfg.requestBytes, [this, p, start] {
                ++finished;
                const bool measured = finished > cfg.warmupOps;
                if (finished == cfg.warmupOps + 1)
                    measureStart = start;
                if (measured) {
                    ++measuredOps;
                    measuredBytes += cfg.requestBytes;
                    latencyMs.sample(sim::ticksToMs(eq.now() - start));
                    lastFinish = eq.now();
                }
                next(p);
            });
        }
    };
    State st(cfg, op, eq);
    const std::uint64_t total = st.total;

    // Per-process sequential partitions.
    st.cursor.resize(cfg.processes);
    for (unsigned p = 0; p < cfg.processes; ++p)
        st.cursor[p] = (cfg.regionBytes / cfg.processes) * p;

    const sim::Tick t0 = eq.now();
    for (unsigned p = 0; p < cfg.processes && st.issued < total; ++p)
        st.next(p);
    eq.runUntilDone([&st, total] { return st.finished >= total; });

    if (st.finished < total)
        sim::fatal("ClosedLoopRunner: queue drained with %llu/%llu ops",
                   (unsigned long long)st.finished,
                   (unsigned long long)total);

    Results res;
    res.ops = st.measuredOps;
    res.bytes = st.measuredBytes;
    const sim::Tick begin = cfg.warmupOps ? st.measureStart : t0;
    res.elapsed = st.lastFinish > begin ? st.lastFinish - begin : 0;
    res.latencyMs = st.latencyMs;
    return res;
}

StreamRunner::StreamResults
StreamRunner::run(sim::EventQueue &eq, const Config &cfg, const Op &op)
{
    struct Shared
    {
        StreamResults res;
        std::uint64_t outstanding = 0;
        std::uint64_t totalFrames = 0;
    };
    auto sh = std::make_shared<Shared>();
    sh->totalFrames =
        std::uint64_t(cfg.streams) * cfg.framesPerStream;

    const sim::Tick t0 = eq.now();
    for (unsigned s = 0; s < cfg.streams; ++s) {
        for (std::uint64_t f = 0; f < cfg.framesPerStream; ++f) {
            const sim::Tick when = t0 + f * cfg.framePeriod;
            const std::uint64_t off =
                std::uint64_t(s) * cfg.streamStrideBytes +
                f * cfg.frameBytes;
            eq.schedule(when, [&eq, &op, &cfg, sh, off, when] {
                ++sh->outstanding;
                op(off, cfg.frameBytes, [&eq, &cfg, sh, when] {
                    --sh->outstanding;
                    ++sh->res.frames;
                    const sim::Tick lat = eq.now() - when;
                    sh->res.frameLatencyMs.sample(sim::ticksToMs(lat));
                    if (lat > cfg.framePeriod)
                        ++sh->res.deadlineMisses;
                });
            });
        }
    }
    eq.runUntilDone([sh] {
        return sh->res.frames >= sh->totalFrames;
    });
    sh->res.elapsed = eq.now() - t0;
    return sh->res;
}

} // namespace raid2::workload
