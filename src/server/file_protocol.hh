/**
 * @file
 * The RAID file access library (client side of the fast path).
 *
 * §3.3: clients link "a small library that converts RAID file
 * operations into operations on an Ultranet socket connection":
 * raid_open opens a socket and names the file; raid_read/raid_write
 * stream data over the Ultranet between the XBUS board's HIPPI port
 * and the client NIC.  This class models that library: per-call
 * socket/RPC costs, positional handles, and the timed transfer path
 * through server HIPPI -> Ultranet ring -> client NIC.
 *
 * Every operation completes with a single Result record (status,
 * bytes, handle, issue/complete ticks).  Every operation the client
 * sends goes through the server front end, the RequestScheduler:
 * bounded admission queues, per-session fairness, and the §2.1.1
 * class split (bulk ops over the HIPPI fast path, metadata and small
 * ops over the Ethernet standard path).  An operation may therefore
 * complete with Status::Busy or Status::Throttled, which the caller
 * should retry after a backoff.
 */

#ifndef RAID2_SERVER_FILE_PROTOCOL_HH
#define RAID2_SERVER_FILE_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "net/client_model.hh"
#include "net/ultranet.hh"
#include "server/request_scheduler.hh"

namespace raid2::server {

/** Client-side RAID file library over the Ultranet fast path. */
class RaidFileClient
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle invalidHandle = 0;

    /** Completion status (shared with the front end). */
    using Status = server::Status;

    /** Unified completion record delivered with every operation. */
    struct Result
    {
        Status status = Status::Ok;
        /** Open: the opened handle (invalidHandle on failure). */
        Handle handle = invalidHandle;
        /** Read/Write: payload bytes transferred. */
        std::uint64_t bytes = 0;
        /** Tick the operation was issued at the client. */
        sim::Tick issued = 0;
        /** Tick the completion fired. */
        sim::Tick completed = 0;
        /** Class the op was (or would have been) scheduled under. */
        RequestScheduler::ServiceClass cls =
            RequestScheduler::ServiceClass::FastPath;

        bool ok() const { return status == Status::Ok; }
        double
        latencyMs() const
        {
            return sim::ticksToMs(completed - issued);
        }
    };

    using Completion = sim::Callback<const Result &>;

    /** Round-trip command latency for open/close and per-request
     *  command exchange (socket + Sprite-RPC on the host). */
    static constexpr sim::Tick commandRtt = sim::msToTicks(1.0);

    struct Config
    {
        /** Host CPU polls during sends with the initial network driver
         *  (§3.4) instead of taking interrupts. */
        bool pollingDriver = false;
    };

    /** The client allocates its scheduler session here. */
    RaidFileClient(sim::EventQueue &eq, RequestScheduler &sched,
                   net::ClientModel &client, net::UltranetFabric &net,
                   const Config &cfg);
    RaidFileClient(sim::EventQueue &eq, RequestScheduler &sched,
                   net::ClientModel &client, net::UltranetFabric &net);
    /** Ops in flight hold the client's address. */
    RaidFileClient(const RaidFileClient &) = delete;
    RaidFileClient &operator=(const RaidFileClient &) = delete;

    /**
     * Open (or create) a file.  Completes with Result::handle set on
     * success; Status::NotFound when the path is missing and @p create
     * is false.
     */
    void raidOpen(const std::string &path, bool create, Completion done);

    /** Read @p len bytes at the handle's position; the position
     *  advances by the bytes actually read on success.  Reading at EOF
     *  is Status::Ok with 0 bytes. */
    void raidRead(Handle h, std::uint64_t len, Completion done);

    /** Write @p len bytes at the handle's position; the position
     *  advances by @p len on success. */
    void raidWrite(Handle h, std::uint64_t len, Completion done);

    /** Positional read: like raidRead at @p off, but never moves the
     *  handle's position (so many may be in flight on one handle). */
    void raidPRead(Handle h, std::uint64_t off, std::uint64_t len,
                   Completion done);

    /** Positional write at @p off; never moves the position. */
    void raidPWrite(Handle h, std::uint64_t off, std::uint64_t len,
                    Completion done);

    /** Set the handle's position.  Status::BadHandle if @p h is closed
     *  or was never opened. */
    Status raidSeek(Handle h, std::uint64_t pos);

    /** Close @p h; Status::BadHandle if it was not open. */
    Status raidClose(Handle h);

    /** The handle's position, or std::nullopt for a closed or
     *  never-opened handle (the Status::BadHandle case). */
    std::optional<std::uint64_t> position(Handle h) const;

    /** The scheduler session this client was assigned. */
    std::uint32_t session() const { return _session; }

  private:
    struct OpenFile
    {
        lfs::InodeNum ino;
        std::uint64_t pos = 0;
    };

    using OpKind = RequestScheduler::OpKind;

    /** Complete locally (bad handle, EOF) after the command RTT. */
    void completeLocal(Result res, Completion done);

    /** Issue a read or write of @p len bytes on @p h at @p at, or at
     *  the handle's position (which then advances on success) when
     *  @p at is empty. */
    void transfer(OpKind kind, Handle h, std::optional<std::uint64_t> at,
                  std::uint64_t len, Completion done);

    /** Send @p r to the front end after the command RTT. */
    void submit(RequestScheduler::Request r);

    sim::EventQueue &eq;
    RequestScheduler &sched;
    net::ClientModel &client;
    net::UltranetFabric &net;
    Config cfg;
    std::uint32_t _session;

    std::map<Handle, OpenFile> open;
    Handle nextHandle = 1;
};

} // namespace raid2::server

#endif // RAID2_SERVER_FILE_PROTOCOL_HH
