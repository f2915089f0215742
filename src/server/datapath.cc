#include "server/datapath.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace raid2::server {

namespace {

/** One PipelinedReader run, shared by its completions in flight. */
struct Reader : std::enable_shared_from_this<Reader>
{
    struct Chunk
    {
        std::uint64_t off;
        std::uint64_t len;
        bool ready = false; // read complete, waiting to send
        bool sent = false;  // left the out stages
        sim::Tick issueTick = 0;
        sim::Tick sendTick = 0;
    };

    Reader(sim::EventQueue &eq_, raid::SimArray &array_,
           PipelinedReader::Config cfg_, sim::Event done_)
        : eq(eq_), array(array_), cfg(std::move(cfg_)),
          done(std::move(done_))
    {
    }
    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    void pump();
    void readDone(std::size_t idx);
    void drainInOrder();
    void chunkSent(std::size_t idx);

    sim::EventQueue &eq;
    raid::SimArray &array;
    PipelinedReader::Config cfg;
    sim::Event done;

    std::vector<Chunk> chunks;
    std::size_t nextIssue = 0;
    std::size_t nextSend = 0;
    std::size_t completed = 0;
    unsigned inFlight = 0;
    bool setupCharged = false;
};

void
Reader::pump()
{
    while (inFlight < cfg.depth && nextIssue < chunks.size()) {
        const std::size_t idx = nextIssue++;
        ++inFlight;
        auto issue = [self = shared_from_this(), idx] {
            self->chunks[idx].issueTick = self->eq.now();
            self->array.read(self->chunks[idx].off,
                             self->chunks[idx].len,
                             [self, idx] { self->readDone(idx); });
        };
        if (cfg.buffers) {
            cfg.buffers->alloc(chunks[idx].len, std::move(issue));
        } else {
            issue();
        }
    }
}

void
Reader::readDone(std::size_t idx)
{
    chunks[idx].ready = true;
    if (auto *t = eq.tracer())
        t->complete("pipeline", "prefetch", chunks[idx].issueTick,
                    eq.now(), chunks[idx].len);
    drainInOrder();
}

void
Reader::drainInOrder()
{
    // Deliver strictly in file order so the receiver sees a stream.
    while (nextSend < chunks.size() && chunks[nextSend].ready &&
           !chunks[nextSend].sent) {
        const std::size_t idx = nextSend++;
        chunks[idx].sent = true;
        chunks[idx].sendTick = eq.now();
        if (cfg.outStages.empty()) {
            chunkSent(idx);
            continue;
        }
        if (!setupCharged && cfg.outSetup > 0) {
            setupCharged = true;
            cfg.outStages.front().svc->submitBusyTime(cfg.outSetup,
                                                      nullptr);
        }
        sim::Pipeline::start(cfg.outStages, chunks[idx].len,
                             cal::xbusChunkBytes,
                             [self = shared_from_this(), idx] {
                                 self->chunkSent(idx);
                             });
    }
}

void
Reader::chunkSent(std::size_t idx)
{
    if (auto *t = eq.tracer())
        t->complete("pipeline", "send", chunks[idx].sendTick, eq.now(),
                    chunks[idx].len);
    if (cfg.buffers)
        cfg.buffers->free(chunks[idx].len);
    --inFlight;
    ++completed;
    pump();
    if (completed == chunks.size() && done)
        done();
}

} // namespace

void
PipelinedReader::start(sim::EventQueue &eq, raid::SimArray &array,
                       std::vector<Range> ranges, Config cfg, sim::Event done)
{
    if (cfg.depth == 0)
        sim::panic("PipelinedReader: zero depth");
    if (cfg.bufferBytes == 0)
        sim::panic("PipelinedReader: zero buffer size");

    const auto r = std::make_shared<Reader>(eq, array, std::move(cfg),
                                            std::move(done));
    for (const Range &rg : ranges) {
        std::uint64_t pos = rg.off;
        std::uint64_t left = rg.len;
        while (left > 0) {
            const std::uint64_t take =
                std::min(left, r->cfg.bufferBytes);
            r->chunks.push_back(Reader::Chunk{pos, take});
            pos += take;
            left -= take;
        }
    }
    if (r->chunks.empty()) {
        // Nothing to read (e.g. an all-hole range).
        eq.scheduleIn(0, [r] {
            if (r->done)
                r->done();
        });
        return;
    }
    r->pump();
}

} // namespace raid2::server
