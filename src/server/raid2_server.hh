/**
 * @file
 * The RAID-II storage server.
 *
 * Glues the whole prototype together the way Fig 2 draws it: an XBUS
 * board with its disk array (SimArray, timed), the HIPPI pair, the
 * host workstation, and LFS.  The file system runs functionally on a
 * device whose logical space coincides with the timed array's logical
 * space; the server mirrors LFS's device traffic into the timed plane
 * (segment flushes become full-stripe array writes, mapFile() extents
 * become pipelined array reads), which is exactly the division of
 * labor between the Sun 4/280 host software and the XBUS hardware in
 * the real system.
 */

#ifndef RAID2_SERVER_RAID2_SERVER_HH
#define RAID2_SERVER_RAID2_SERVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fault/fault_controller.hh"
#include "fault/recovery_manager.hh"
#include "fault/scrubber.hh"
#include "fs/array_block_device.hh"
#include "fs/block_device.hh"
#include "fs/mem_block_device.hh"
#include "integrity/verifying_device.hh"
#include "host/host_workstation.hh"
#include "host/lru_cache.hh"
#include "lfs/lfs.hh"
#include "net/ethernet.hh"
#include "net/hippi.hh"
#include "raid/sim_array.hh"
#include "server/datapath.hh"
#include "xbus/xbus_board.hh"

namespace raid2::server {

/** Completion status of a server read and of every front-end
 *  operation (RequestScheduler, RaidFileClient). */
enum class Status {
    Ok,
    NotFound,   // open of a missing path without create
    BadHandle,  // operation on a closed or never-opened handle
    Busy,       // admission queue full; back off and retry
    Throttled,  // per-session backlog cap exceeded; back off and retry
    DataCorrupt, // read hit unrepairable corruption; retry may succeed
                 // once the scrubber or a rewrite heals the block
};

const char *statusName(Status st);

/** One-XBUS-board RAID-II server. */
class Raid2Server
{
  public:
    struct Config
    {
        raid::LayoutConfig layout;
        raid::ArrayTopology topo;

        /** Mount LFS on the array (off for raw-hardware benches). */
        bool withFs = true;
        lfs::Lfs::Params fsParams;
        /** Functional device capacity; the timed array's logical space
         *  is usually far larger than a bench's working set, so the
         *  functional twin only needs to cover the set actually
         *  touched. */
        std::uint64_t fsDeviceBytes = 256ull * 1024 * 1024;

        unsigned pipelineDepth = cal::defaultPipelineDepth;
        std::uint64_t pipelineBufferBytes = 256 * 1024;
        sim::Tick fsReadOverhead = cal::lfsReadOpOverhead;
        sim::Tick fsWriteOverhead = cal::lfsWriteOpOverhead;
        /** Write-behind bound on outstanding segment flushes. */
        unsigned maxFlushesInFlight = 2;
        /** Host file-cache budget for standard-mode reads (§3.2: "The
         *  host memory cache contains metadata as well as files that
         *  have been read into workstation memory for transfer over
         *  the Ethernet"). */
        std::uint64_t hostCacheBytes = 64ull * 1024 * 1024;
        /** NVRAM write buffer on the host for standard-mode (NFS-
         *  style) writes; §4.1: NFS servers add "possibly non-volatile
         *  memory to speed up NFS writes".  0 = none: standard-mode
         *  writes are stable (ack only after the log reaches disk). */
        std::uint64_t nvramBytes = 0;

        /** @{ Reliability subsystem.  When set, the server owns a
         *  fault::FaultController wired to the array and the HIPPI
         *  loop, a RecoveryManager that auto-rebuilds onto hot spares,
         *  and a media Scrubber (the caller starts it and the fault
         *  plan).  Off by default: a fault-free server pays nothing. */
        bool withReliability = false;
        fault::RecoveryManager::Config recovery;
        fault::Scrubber::Config scrub;
        /** @} */

        /** @{ End-to-end integrity (src/integrity/).  When set, the
         *  functional device becomes a raid::RaidArray twin (sized to
         *  cover fsDeviceBytes) wrapped in a VerifyingDevice: every
         *  write records a per-block checksum, every read is verified
         *  with read-repair, unrepairable blocks surface as corrupt
         *  reads, and the scrubber (withReliability) upgrades to a
         *  full checksum-verify sweep.  Off by default: the functional
         *  device stays a plain MemBlockDevice and reads cost nothing
         *  extra. */
        bool withIntegrity = false;
        integrity::VerifyingDevice::Config integrityCfg;
        /** @} */

        Config()
        {
            layout.level = raid::RaidLevel::Raid5;
            layout.stripeUnitBytes = cal::lfsStripeUnitBytes;
        }
    };

    Raid2Server(sim::EventQueue &eq, std::string name, const Config &cfg);
    ~Raid2Server();

    /** @{ Subsystems. */
    xbus::XbusBoard &board() { return *_board; }
    raid::SimArray &array() { return *_array; }
    host::HostWorkstation &host() { return *_host; }
    net::EthernetLink &ethernet() { return *_ethernet; }
    lfs::Lfs &fs();
    sim::EventQueue &eventQueue() { return eq; }
    const Config &config() const { return cfg; }
    /** @{ Reliability subsystem (Config::withReliability only). */
    fault::FaultController &faults();
    fault::RecoveryManager &recovery();
    fault::Scrubber &scrubber();
    bool hasReliability() const { return _faults != nullptr; }
    /** @} */
    /** @{ Integrity subsystem (Config::withIntegrity only). */
    integrity::VerifyingDevice &integrity();
    bool hasIntegrity() const { return verifyDev != nullptr; }
    /** The functional RAID twin backing the integrity chain. */
    raid::RaidArray &functionalArray();
    /** @} */
    /** @} */

    // -----------------------------------------------------------------
    // Hardware-level operations (no file system) — §2.3, Fig 5/Table 1.
    // -----------------------------------------------------------------

    /** Disk array -> XBUS memory -> HIPPI loop -> XBUS memory. */
    void hwRead(std::uint64_t off, std::uint64_t len,
                std::function<void()> done);

    /** HIPPI loop -> XBUS memory -> parity -> disk array. */
    void hwWrite(std::uint64_t off, std::uint64_t len,
                 std::function<void()> done);

    // -----------------------------------------------------------------
    // LFS operations — §3.4, Fig 8 (data to/from XBUS network buffers).
    // -----------------------------------------------------------------

    lfs::InodeNum createFile(const std::string &path);

    /**
     * Timed + functional file write.  Completion models LFS
     * write-behind: the request finishes once buffered (overhead +
     * memory copy) unless segment flushes back up.
     */
    void fileWrite(lfs::InodeNum ino, std::uint64_t off,
                   std::uint64_t len, std::function<void()> done);

    /** Like fileWrite() but stores caller-supplied bytes (the data is
     *  copied before the call returns). */
    void fileWriteData(lfs::InodeNum ino, std::uint64_t off,
                       std::span<const std::uint8_t> data,
                       std::function<void()> done);

    /** Read completion: Status::Ok, or Status::DataCorrupt when
     *  verify-on-read (Config::withIntegrity) met a block it could not
     *  repair — never silent wrong data. */
    using ReadDone = std::function<void(Status)>;

    /**
     * Timed + functional file read through the pipelined high-
     * bandwidth path into XBUS network buffers.  @p extra_out appends
     * stages after the network-buffer copy (e.g. HIPPI + client NIC).
     * With Config::withIntegrity the functional bytes are checksum-
     * verified (with read-repair) in the fs CPU step, one mapped
     * extent at a time, and a pending HIPPI-payload corruption
     * (CorruptionSurface::Network) costs one link-level retransmit of
     * the payload before completion.
     */
    void fileRead(lfs::InodeNum ino, std::uint64_t off,
                  std::uint64_t len, ReadDone done,
                  std::vector<sim::Stage> extra_out = {},
                  sim::Tick out_setup = 0);

    /** Status-free fileRead(), kept only for benchsuite/suite.cc,
     *  which BENCHMARK.json freezes; the next change to the benchmark
     *  moves that call to the ReadDone form and deletes this. */
    void
    fileRead(lfs::InodeNum ino, std::uint64_t off, std::uint64_t len,
             std::function<void()> done)
    {
        fileRead(ino, off, len,
                 [done = std::move(done)](Status) { done(); });
    }

    /** Timed sync: flush LFS state and wait for the array writes. */
    void fsSync(std::function<void()> done);

    // -----------------------------------------------------------------
    // Standard mode — Ethernet through the host (§2.1.1, §3.3).
    // -----------------------------------------------------------------

    /** XBUS -> host link -> host memory -> Ethernet -> client.  Whole
     *  files read this way populate the host's LRU cache; later
     *  standard-mode reads of a cached file skip the array entirely
     *  (§3.2).  With Config::withIntegrity the functional bytes are
     *  verified at call time, before the cache lookup, as in
     *  fileRead(). */
    void standardRead(lfs::InodeNum ino, std::uint64_t off,
                      std::uint64_t len, ReadDone done);

    /**
     * Standard-mode (NFS-style) write: Ethernet -> host memory ->
     * control link -> LFS.  Without NVRAM the reply waits for the data
     * to be stable on disk (NFSv2 semantics: sync + flush); with
     * Config::nvramBytes set, the reply returns once the data is in
     * the host's NVRAM and the log flush proceeds behind it.
     */
    void standardWrite(lfs::InodeNum ino, std::uint64_t off,
                       std::uint64_t len, std::function<void()> done);

    /** The host's standard-mode file cache. */
    host::LruCache &hostCache() { return _hostCache; }

    // -----------------------------------------------------------------
    // Snapshot / backup plumbing (src/snap/).
    // -----------------------------------------------------------------

    /** The functional LFS device (reads return exactly the log bytes
     *  the file system wrote; writes mirror into the timed plane), for
     *  attaching a fs::WriteLog capture (model checking) next to the
     *  write-mirroring hook. */
    fs::HookBlockDevice &fsHookDevice();
    /** The functional twin bypassing the write-mirroring hook — for
     *  restore writes whose array timing the BackupEngine models
     *  itself.  With Config::withIntegrity this is the verifying
     *  device (restore writes re-record checksums); otherwise the
     *  in-memory device. */
    fs::BlockDevice &rawFsDevice();
    /** Tear down and re-mount LFS from the functional device (after a
     *  restore rewrote it). */
    void remountFs();
    /** @{ While a restore is rewriting the array, ops arriving through
     *  the request scheduler complete with Status::Busy instead of
     *  racing the restore writer. */
    void beginRestore();
    void endRestore();
    bool restoreActive() const { return _restoreActive; }
    /** @} */

    // -----------------------------------------------------------------
    // Functional-plane mutation observer (model checking).
    // -----------------------------------------------------------------

    /** One LFS mutation the server is about to apply.  Observed in
     *  apply order: the fsCpu service serializes every mutating path,
     *  so the observer sees exactly the sequence the log sees. */
    struct FsOp
    {
        enum class Kind { Create, Write, Sync };
        Kind kind{};
        std::string path;      ///< Create only.
        lfs::InodeNum ino = 0; ///< Write only.
        std::uint64_t off = 0; ///< Write only.
        std::uint64_t len = 0; ///< Write only.
    };
    using FsOpObserver = std::function<void(const FsOp &)>;
    /** Fired synchronously immediately *before* each functional LFS
     *  mutation (create / write / sync).  Null by default: a
     *  production server pays one branch per op. */
    void setFsOpObserver(FsOpObserver obs)
    {
        _fsOpObserver = std::move(obs);
    }

    /** @{ Statistics. */
    std::uint64_t segmentFlushes() const { return _segmentFlushes; }
    std::uint64_t flushedBytes() const { return _flushedBytes; }
    /** Reads that completed Status::DataCorrupt (integrity only). */
    std::uint64_t corruptReads() const { return _corruptReads; }
    /** HIPPI payload retransmits forced by network corruption. */
    std::uint64_t netRetransmits() const { return _netRetransmits; }

    /**
     * Register the whole server's stats tree: "xbus.*", "disk.*",
     * "scsi.*", "raid.*", "host.*", "ether.*", "lfs.*" (when a file
     * system is mounted) and "server.*".
     */
    void registerStats(sim::StatsRegistry &reg) const;
    /** @} */

  private:
    /** Collect LFS device writes and issue them to the timed array. */
    void drainPendingWrites(std::function<void()> per_batch_done);
    void noteDeviceWrite(std::uint64_t off, std::uint64_t len);
    void flushCompleted();
    /** Array ranges holding [off, off+len) of @p ino, holes skipped. */
    std::vector<Range> mapRanges(lfs::InodeNum ino, std::uint64_t off,
                                 std::uint64_t len);
    /** Checksum-verify @p ranges on the functional device, with
     *  read-repair (integrity only).  A block that stays corrupt
     *  counts one corrupt read (corruptReads() plus a
     *  "data_corrupt_read" span of @p len bytes) and yields
     *  Status::DataCorrupt. */
    Status verifyRanges(const std::vector<Range> &ranges,
                        std::uint64_t len);
    /** PipelinedReader set-up from XBUS memory through @p out_stages. */
    PipelinedReader::Config readerConfig(std::vector<sim::Stage> out_stages,
                                         sim::Tick out_setup);
    /** Scrubber VerifyHook: checksum-verify the logical blocks the
     *  scanned member-disk chunk covers, then heal its redundancy. */
    void scrubVerifyChunk(unsigned d, std::uint64_t off,
                          std::uint64_t len);

    sim::EventQueue &eq;
    std::string _name;
    Config cfg;

    std::unique_ptr<xbus::XbusBoard> _board;
    std::unique_ptr<raid::SimArray> _array;
    std::unique_ptr<host::HostWorkstation> _host;
    std::unique_ptr<net::EthernetLink> _ethernet;
    std::unique_ptr<net::HippiLoopback> _loop;

    /** Functional RAID twin; null unless Config::withIntegrity.
     *  Declared before the FaultController (which mirrors faults into
     *  it) and before the device chain built on top of it. */
    std::unique_ptr<raid::RaidArray> _functional;

    /** @{ Reliability subsystem; null unless Config::withReliability.
     *  Declared after the array so the controller detaches its oracle
     *  before the array dies. */
    std::unique_ptr<fault::FaultController> _faults;
    std::unique_ptr<fault::RecoveryManager> _recovery;
    std::unique_ptr<fault::Scrubber> _scrubber;
    /** @} */

    /** Serializes the per-request file system CPU overheads. */
    std::unique_ptr<sim::Service> fsCpu;

    /** Functional device chain.  Plain: fsDev -> hookDev.  Integrity:
     *  _functional -> arrayDev -> verifyDev -> hookDev (declaration
     *  order matters — wrappers must die before what they wrap). */
    std::unique_ptr<fs::MemBlockDevice> fsDev;
    std::unique_ptr<fs::ArrayBlockDevice> arrayDev;
    std::unique_ptr<integrity::VerifyingDevice> verifyDev;
    std::unique_ptr<fs::HookBlockDevice> hookDev;
    std::unique_ptr<lfs::Lfs> _fs;

    /** Device writes recorded by the hook since the last drain. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pendingWrites;
    unsigned flushesInFlight = 0;
    std::deque<std::function<void()>> flushWaiters;

    host::LruCache _hostCache;

    std::uint64_t _segmentFlushes = 0;
    std::uint64_t _flushedBytes = 0;
    std::uint64_t _restores = 0;
    bool _restoreActive = false;

    /** @{ Integrity-path state. */
    std::vector<std::uint8_t> _verifyScratch;
    unsigned _netFlipsArmed = 0;
    std::uint64_t _netRetransmits = 0;
    std::uint64_t _corruptReads = 0;
    /** @} */

    FsOpObserver _fsOpObserver;
};

} // namespace raid2::server

#endif // RAID2_SERVER_RAID2_SERVER_HH
