/**
 * @file
 * Server front end: admission control + fair scheduling of client ops.
 *
 * The paper's server is shared by many simultaneous clients on the
 * Ultranet and the Ethernet (Fig 1); §2.1.1 splits their traffic into
 * two access modes ("smaller requests use the Ethernet network and
 * larger requests use the HIPPI network").  This front end models the
 * server-resident request layer that makes such sharing workable:
 *
 *  - client operations become typed Request records;
 *  - each service class (fast-path HIPPI bulk vs standard-mode
 *    Ethernet metadata/small ops) has a bounded admission queue —
 *    when it is full the request completes immediately with
 *    Status::Busy and the client is expected to back off and retry;
 *  - within a class, sessions are scheduled by deficit round robin so
 *    one aggressive client cannot starve the rest;
 *  - metadata operations (opens) are batched on the host CPU: one
 *    kernel entry per batch instead of one per op, mirroring how the
 *    Sprite server amortized request handling.
 *
 * Scheduler stats register under "server.sched.*" and every granted
 * request is traced as a span when a TraceSink is attached.
 */

#ifndef RAID2_SERVER_REQUEST_SCHEDULER_HH
#define RAID2_SERVER_REQUEST_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "server/raid2_server.hh"
#include "sim/event_queue.hh"
#include "sim/service.hh"
#include "sim/stats.hh"

namespace raid2::server {

/** Front-end request scheduler for one Raid2Server. */
class RequestScheduler
{
  public:
    /** §2.1.1 access modes, as scheduling classes. */
    enum class ServiceClass : std::uint8_t {
        FastPath, // bulk data over HIPPI/Ultranet, XBUS datapath
        Standard, // metadata + small ops over Ethernet via the host
    };

    enum class OpKind : std::uint8_t { Open, Read, Write };

    static const char *className(ServiceClass c);
    static const char *kindName(OpKind k);

    /** One client operation, as the front end sees it. */
    struct Request
    {
        std::uint32_t session = 0;
        OpKind kind = OpKind::Read;

        /** @{ Open only. */
        std::string path;
        bool create = false;
        /** @} */

        /** @{ Read/Write only. */
        lfs::InodeNum ino = 0;
        std::uint64_t off = 0;
        std::uint64_t len = 0;
        /** @} */

        /** Fast-path read egress after the XBUS network buffers
         *  (HIPPI source -> ring -> client NIC). */
        std::vector<sim::Stage> outStages;
        /** Fast-path write ingress before the LFS write path
         *  (client NIC -> ring -> HIPPI destination). */
        std::vector<sim::Stage> inStages;
        /** Host CPU busy time charged when the request is granted
         *  (the §3.4 polling network driver). */
        sim::Tick hostBusyTicks = 0;

        /** Completion; for Open the inode is the opened file's. */
        using Done = sim::Callback<Status, lfs::InodeNum>;
        Done done;
    };

    struct Config
    {
        /** @{ Admission bounds (requests queued, per class). */
        std::size_t fastQueueCap = 64;
        std::size_t stdQueueCap = 128;
        /** @} */
        /** Per-session backlog cap within a class; a session whose
         *  queue is this deep gets Status::Throttled even while the
         *  class queue still has room (keeps one runaway session from
         *  consuming the whole admission budget). 0 = no cap. */
        std::size_t sessionQueueCap = 16;
        /** @{ Requests in service simultaneously, per class.  A
         *  granted request holds its slot until the data drains to
         *  the client, so the fast-path budget must cover many
         *  concurrent ~3 MB/s client NICs (the XBUS buffer pool
         *  holds dozens of in-flight streams). */
        unsigned fastInFlight = 16;
        unsigned stdInFlight = 8;
        /** @} */
    };

    /** Reads/writes of at most this many bytes are standard-mode ops
     *  (§2.1.1: small requests go over the Ethernet). */
    static constexpr std::uint64_t smallOpBytes = 64 * 1024;

    /** @{ Host-CPU batching of metadata ops: a batch flushes when it
     *  reaches metaBatchMax ops or metaBatchWindow after its first
     *  op. */
    static constexpr unsigned metaBatchMax = 8;
    static constexpr sim::Tick metaBatchWindow = sim::usToTicks(500);
    /** @} */

    RequestScheduler(sim::EventQueue &eq, Raid2Server &srv,
                     const Config &cfg);
    RequestScheduler(sim::EventQueue &eq, Raid2Server &srv);

    /** Session ids returned are dense and start at 1. */
    std::uint32_t allocSession() { return nextSession++; }

    /** The class an op of @p kind moving @p len bytes is scheduled
     *  under: opens and ops of at most smallOpBytes are standard
     *  mode, the rest take the fast path. */
    static ServiceClass classify(OpKind kind, std::uint64_t len);
    /** The class @p r will be scheduled under. */
    static ServiceClass
    classify(const Request &r)
    {
        return classify(r.kind, r.len);
    }

    /**
     * Submit a request.  Completion is always asynchronous, including
     * rejections (Status::Busy / Status::Throttled after a short
     * server turnaround), so callers may retry from the completion
     * without reentrancy hazards.
     */
    void submit(Request r);

    /** @{ Introspection (tests, benches). */
    std::size_t queueDepth(ServiceClass c) const;
    unsigned inFlight(ServiceClass c) const;
    std::uint64_t admitted(ServiceClass c) const;
    std::uint64_t rejected(ServiceClass c) const;
    std::uint64_t completed(ServiceClass c) const;
    std::uint64_t batches() const { return _batches; }
    std::uint64_t batchedOps() const { return _batchedOps; }
    /** Bytes granted to @p session in class @p c (fairness tests). */
    std::uint64_t sessionServedBytes(ServiceClass c,
                                     std::uint32_t session) const;
    const sim::Distribution &serviceMs(ServiceClass c) const;
    /** @} */

    /**
     * Register scheduler stats: per class
     * "server.sched.<fast|std>.{depth,sessions,admitted,rejected,
     * completed,queue_delay_ms,service_ms}" plus
     * "server.sched.std.{batches,batched_ops}".
     */
    void registerStats(sim::StatsRegistry &reg) const;

    const Config &config() const { return cfg; }
    Raid2Server &server() const { return srv; }

  private:
    struct SessionQueue
    {
        std::uint32_t id = 0;
        std::deque<Request> q;
        /** Enqueue tick of each queued request (parallel to q). */
        std::deque<sim::Tick> enqueuedAt;
        std::uint64_t deficit = 0;
        std::uint64_t servedBytes = 0;
        bool active = false; // member of ClassState::active
    };

    struct ClassState
    {
        ServiceClass cls;
        std::size_t queueCap = 0;
        unsigned inflightCap = 1;
        std::uint64_t depth = 0;
        unsigned inflight = 0;
        std::map<std::uint32_t, SessionQueue> sessions;
        std::deque<SessionQueue *> active; // DRR visiting order
        std::uint64_t admitted = 0, rejected = 0, completed = 0;
        sim::Distribution queueDelayMs, serviceMs;
    };

    /** One open waiting in the metadata batch. */
    struct BatchedOpen
    {
        Request req;
        sim::Tick grantedAt = 0;
        std::uint64_t span = 0;
    };

    ClassState &state(ServiceClass c);
    const ClassState &state(ServiceClass c) const;

    /** DRR cost of a request (bytes, with a floor for tiny ops). */
    std::uint64_t costOf(const Request &r) const;

    void reject(ClassState &cs, Request &&r, Status st);
    void pump(ClassState &cs);
    void grant(ClassState &cs, SessionQueue &s);
    void dispatch(ClassState &cs, Request &&r, sim::Tick granted_at,
                  std::uint64_t span);
    void finish(ClassState &cs, Request::Done &done, sim::Tick granted_at,
                std::uint64_t span, Status st, lfs::InodeNum ino);

    void enqueueOpen(Request &&r, sim::Tick granted_at,
                     std::uint64_t span);
    void flushBatch();

    sim::EventQueue &eq;
    Raid2Server &srv;
    Config cfg;

    ClassState fast;
    ClassState standard;

    std::vector<BatchedOpen> batch;
    sim::EventQueue::EventId batchTimer = sim::EventQueue::invalidEvent;
    std::uint64_t _batches = 0, _batchedOps = 0;

    std::uint32_t nextSession = 1;
};

} // namespace raid2::server

#endif // RAID2_SERVER_REQUEST_SCHEDULER_HH
