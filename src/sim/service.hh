/**
 * @file
 * Rate-limited service stages and chunked pipeline transfers.
 *
 * Nearly every shared resource in the RAID-II datapath (a SCSI string,
 * a Cougar controller, a VME port, an XBUS memory module, a HIPPI
 * port, the host CPU) is modeled as a Service: a FIFO station with a
 * byte rate, an optional fixed per-request overhead, and an optional
 * degree of internal concurrency.  A Pipeline moves a transfer through
 * a chain of Services in chunks, so sustained throughput of a long
 * transfer is the minimum stage rate while short transfers are
 * dominated by per-request overheads — the two regimes all of the
 * paper's performance curves live in.
 *
 * Every chunk occupies every station, but a transfer dispatches one
 * completion event at its final station, not one per chunk: the chunk
 * that reaches the final station last is the one that leaves it last
 * (exact on a one-server station, and on a multi-server one when the
 * chunks are of one size), so the earlier chunks' completions there
 * would change nothing.  A transfer with a short last chunk whose
 * final station has several servers keeps one event per chunk there
 * (docs/PERFORMANCE.md, "Transfers: one completion per transfer").
 */

#ifndef RAID2_SIM_SERVICE_HH
#define RAID2_SIM_SERVICE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace raid2::sim {

class StatsRegistry;

/**
 * A FIFO service station with byte rate, fixed per-request overhead
 * and configurable concurrency.
 *
 * Requests are serviced in submission order.  With @c servers > 1 up
 * to that many requests are in service simultaneously (used for
 * resources that are internally parallel, e.g. the four interleaved
 * XBUS memory modules when modeled as one station).
 */
class Service
{
  public:
    struct Config
    {
        /** Service rate in MB/s; 0 means infinitely fast. */
        double mbPerSec = 0.0;
        /** Fixed cost charged to every request. */
        Tick overhead = 0;
        /** Number of internal servers (concurrency). */
        unsigned servers = 1;
    };

    Service(EventQueue &eq, std::string name, const Config &cfg);

    /** Service time for @p bytes excluding queueing, at @p mb_per_sec
     *  (0 = the configured rate). */
    Tick serviceTime(std::uint64_t bytes, double mb_per_sec = 0.0) const;

    /**
     * Enqueue a request for @p bytes; @p done fires when the request
     * completes service.  @p done may be null.
     */
    void submit(std::uint64_t bytes, Event done);

    /**
     * Like submit() but at an explicit rate, for stations whose speed
     * is direction-dependent (e.g. the XBUS VME ports: 6.9 MB/s reads
     * vs 5.9 MB/s writes through one physical port).  @p mb_per_sec of
     * 0 means the configured rate, as in submit().
     */
    void submitAtRate(std::uint64_t bytes, double mb_per_sec, Event done);

    /** Occupy the station for an explicit duration. */
    void submitBusyTime(Tick service_ticks, Event done);

    /** Earliest tick at which a request submitted now could start. */
    Tick nextFree() const;

    /** True when no request is queued or in service. */
    bool idle() const { return nextFree() <= eq.now(); }

    const std::string &name() const { return _name; }

    /** Number of internal servers. */
    unsigned servers() const { return cfg.servers; }

    /** @{ Statistics. */
    std::uint64_t bytesServed() const { return _bytesServed; }
    std::uint64_t requests() const { return _requests; }
    Tick busyTicks() const { return busy.busy(); }
    double utilization(Tick elapsed) const { return busy.fraction(elapsed); }
    const Distribution &queueDelay() const { return _queueDelay; }
    void resetStats();
    /** Register this station's stats under @p prefix ("<prefix>.bytes",
     *  ".requests", ".busy", ".queue_delay_ms"). */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;
    /** @} */

  private:
    EventQueue &eq;
    std::string _name;
    Config cfg;

    /** Completion times of the busiest tail per server (min-heap). */
    std::priority_queue<Tick, std::vector<Tick>, std::greater<>> serverFree;

    std::uint64_t _bytesServed = 0;
    std::uint64_t _requests = 0;
    Utilization busy;
    Distribution _queueDelay; // milliseconds
};

/**
 * One hop of a pipelined transfer: a Service plus an optional rate
 * override for direction-dependent stations (0 = use the Service's
 * configured rate).
 */
struct Stage
{
    Service *svc = nullptr;
    double mbPerSec = 0.0;

    Stage() = default;
    Stage(Service *s) : svc(s) {}             // NOLINT: implicit by design
    Stage(Service *s, double rate) : svc(s), mbPerSec(rate) {}
    Stage(Service &s) : svc(&s) {}            // NOLINT: implicit by design
    Stage(Service &s, double rate) : svc(&s), mbPerSec(rate) {}
};

/**
 * Move a transfer of @c bytes through a chain of Services in chunks.
 *
 * Chunk i is submitted to stage j+1 as soon as it completes stage j,
 * so stages overlap (store-and-forward pipelining).  The @c done
 * callback fires when the last chunk leaves the last stage.
 *
 * start() feeds every chunk into stage 0 at once.  A Pipeline object
 * is the fed form: its chunks enter stage 0 one at a time through
 * feed(), as a drive's media phase buffers them.  The object is a
 * reference to the transfer; copies share it.  The transfer is one
 * allocation, held by the handles and the chunk completions the event
 * queue holds, so it is freed with the last of them, or with the queue
 * if the transfer never finishes.
 */
class Pipeline
{
  public:
    /**
     * Open a transfer of @p bytes in @p chunk_bytes chunks whose chunks
     * enter stage 0 through feed(); nothing is submitted yet.
     */
    Pipeline(const std::vector<Stage> &stages, std::uint64_t bytes,
             std::uint64_t chunk_bytes, Event done);

    Pipeline(const Pipeline &other) noexcept;
    Pipeline(Pipeline &&other) noexcept : t(other.t) { other.t = nullptr; }
    Pipeline &operator=(const Pipeline &) = delete;
    ~Pipeline();

    /**
     * Submit one chunk of @p bytes to stage 0 now.  The feeds partition
     * the transfer as start() would — whole chunks and at most one short
     * one, the short one in any position — or the call panics.
     */
    void feed(std::uint64_t bytes) const;

    /** Begin a pipelined transfer with every chunk fed now; returns
     *  immediately. */
    static void start(const std::vector<Stage> &stages,
                      std::uint64_t bytes, std::uint64_t chunk_bytes,
                      Event done);

  private:
    struct Transfer;

    /** Submit a chunk of @p bytes to @p stage; its completion carries
     *  @p ref on to the next stage. */
    static void hop(Pipeline ref, std::size_t stage, std::uint64_t bytes);

    Transfer *t = nullptr;
};

} // namespace raid2::sim

#endif // RAID2_SIM_SERVICE_HH
