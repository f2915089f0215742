#include "server/raid2_server.hh"

#include <algorithm>

#include "integrity/log_seed.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::server {

const char *
statusName(Status st)
{
    switch (st) {
    case Status::Ok:
        return "Ok";
    case Status::NotFound:
        return "NotFound";
    case Status::BadHandle:
        return "BadHandle";
    case Status::Busy:
        return "Busy";
    case Status::Throttled:
        return "Throttled";
    case Status::DataCorrupt:
        return "DataCorrupt";
    }
    return "?";
}

Raid2Server::Raid2Server(sim::EventQueue &eq_, std::string name,
                         const Config &cfg_)
    : eq(eq_), _name(std::move(name)), cfg(cfg_),
      _hostCache(cfg_.hostCacheBytes)
{
    _board = std::make_unique<xbus::XbusBoard>(eq, _name + ".xbus");
    _array = std::make_unique<raid::SimArray>(eq, *_board,
                                              _name + ".array",
                                              cfg.layout, cfg.topo);
    _host = std::make_unique<host::HostWorkstation>(eq, _name + ".host");
    _ethernet = std::make_unique<net::EthernetLink>(eq, _name + ".ether");
    _loop = std::make_unique<net::HippiLoopback>(eq, *_board);
    fsCpu = std::make_unique<sim::Service>(
        eq, _name + ".fscpu", sim::Service::Config{0.0, 0, 1});

    if (cfg.withFs && cfg.withIntegrity) {
        // Functional RAID twin sized so its data capacity covers the
        // file-system device (whole stripes; geometry shared with the
        // timed array, whose layout carries the disk count the
        // topology resolved).
        raid::LayoutConfig lcfg = cfg.layout;
        lcfg.numDisks = _array->layout().numDisks();
        const raid::RaidLayout probe(lcfg, lcfg.stripeUnitBytes);
        const std::uint64_t sdb = probe.stripeDataBytes();
        const std::uint64_t stripes =
            (cfg.fsDeviceBytes + sdb - 1) / sdb;
        _functional = std::make_unique<raid::RaidArray>(
            lcfg, stripes * lcfg.stripeUnitBytes);
    }

    if (cfg.withReliability) {
        fault::FaultController::Hooks hooks;
        hooks.array = _array.get();
        hooks.functional = _functional.get();
        hooks.hippi = &_loop->channel();
        _faults = std::make_unique<fault::FaultController>(
            eq, _name + ".fault", hooks);
        _recovery = std::make_unique<fault::RecoveryManager>(
            eq, _name + ".recovery", *_array, *_faults, cfg.recovery);
        _scrubber = std::make_unique<fault::Scrubber>(
            eq, _name + ".scrub", *_array, *_faults, cfg.scrub);
    }

    if (cfg.withFs) {
        if (cfg.fsDeviceBytes > _array->capacity())
            sim::fatal("Raid2Server %s: functional device larger than "
                       "the array", _name.c_str());
        if (cfg.fsParams.alignSegmentsTo == 0) {
            // Align LFS segments to the stripe width so segment
            // flushes are full-stripe writes (§3.1's efficient case).
            cfg.fsParams.alignSegmentsTo =
                _array->layout().stripeDataBytes();
        }
        fs::BlockDevice *base = nullptr;
        if (cfg.withIntegrity) {
            // Clamp to fsDeviceBytes: the twin is stripe-rounded, but
            // the file system must see the same geometry either way.
            arrayDev = std::make_unique<fs::ArrayBlockDevice>(
                *_functional, cfg.fsParams.blockSize,
                cfg.fsDeviceBytes / cfg.fsParams.blockSize);
            verifyDev = std::make_unique<integrity::VerifyingDevice>(
                *arrayDev, _functional.get(), cfg.integrityCfg);
            base = verifyDev.get();
        } else {
            fsDev = std::make_unique<fs::MemBlockDevice>(
                cfg.fsParams.blockSize,
                cfg.fsDeviceBytes / cfg.fsParams.blockSize);
            base = fsDev.get();
        }
        hookDev = std::make_unique<fs::HookBlockDevice>(*base);
        hookDev->setHook(
            [this](std::uint64_t off, std::uint64_t len, bool is_write) {
                if (is_write)
                    noteDeviceWrite(off, len);
            });
        lfs::Lfs::format(*hookDev, cfg.fsParams);
        _fs = std::make_unique<lfs::Lfs>(*hookDev);
        _fs->setAutoClean(true);
        // Format/mount traffic is setup, not workload.
        pendingWrites.clear();
    }

    if (verifyDev && _scrubber) {
        _scrubber->setVerifyHook(
            [this](unsigned d, std::uint64_t off, std::uint64_t len) {
                scrubVerifyChunk(d, off, len);
            });
    }
    if (verifyDev && _faults) {
        _faults->onSilentCorruption([this](const fault::FaultEvent &e) {
            switch (e.surface) {
            case fault::CorruptionSurface::TransferRead:
                verifyDev->armReadCorruption();
                break;
            case fault::CorruptionSurface::TransferWrite:
                verifyDev->armWriteCorruption();
                break;
            default:
                // HIPPI payload flip: the link FCS catches it, so the
                // next fast-path read pays a retransmit — a timing
                // cost, never bad bytes.
                ++_netFlipsArmed;
                break;
            }
        });
    }
}

Raid2Server::~Raid2Server() = default;

lfs::Lfs &
Raid2Server::fs()
{
    if (!_fs)
        sim::fatal("Raid2Server %s: configured without a file system",
                   _name.c_str());
    return *_fs;
}

fs::HookBlockDevice &
Raid2Server::fsHookDevice()
{
    if (!hookDev)
        sim::fatal("Raid2Server %s: configured without a file system",
                   _name.c_str());
    return *hookDev;
}

fs::BlockDevice &
Raid2Server::rawFsDevice()
{
    if (verifyDev)
        return *verifyDev;
    if (!fsDev)
        sim::fatal("Raid2Server %s: configured without a file system",
                   _name.c_str());
    return *fsDev;
}

void
Raid2Server::remountFs()
{
    if (!hookDev)
        sim::fatal("Raid2Server %s: configured without a file system",
                   _name.c_str());
    _fs.reset();
    if (verifyDev) {
        // A remount models a restart: the in-memory expectations are
        // gone, so re-seed them from the checksums persisted in the
        // segment summaries (reads go to the inner device — the map
        // being rebuilt must not be consulted).
        verifyDev->checksums().reset();
        integrity::seedFromSegments(*arrayDev, verifyDev->checksums());
    }
    _fs = std::make_unique<lfs::Lfs>(*hookDev);
    _fs->setAutoClean(true);
    // Mount traffic is recovery bookkeeping, not workload.
    pendingWrites.clear();
}

void
Raid2Server::beginRestore()
{
    if (_restoreActive)
        sim::fatal("Raid2Server %s: restore already active",
                   _name.c_str());
    _restoreActive = true;
    ++_restores;
}

void
Raid2Server::endRestore()
{
    _restoreActive = false;
}

fault::FaultController &
Raid2Server::faults()
{
    if (!_faults)
        sim::fatal("Raid2Server %s: configured without reliability",
                   _name.c_str());
    return *_faults;
}

fault::RecoveryManager &
Raid2Server::recovery()
{
    if (!_recovery)
        sim::fatal("Raid2Server %s: configured without reliability",
                   _name.c_str());
    return *_recovery;
}

fault::Scrubber &
Raid2Server::scrubber()
{
    if (!_scrubber)
        sim::fatal("Raid2Server %s: configured without reliability",
                   _name.c_str());
    return *_scrubber;
}

integrity::VerifyingDevice &
Raid2Server::integrity()
{
    if (!verifyDev)
        sim::fatal("Raid2Server %s: configured without integrity",
                   _name.c_str());
    return *verifyDev;
}

raid::RaidArray &
Raid2Server::functionalArray()
{
    if (!_functional)
        sim::fatal("Raid2Server %s: configured without integrity",
                   _name.c_str());
    return *_functional;
}

// ---------------------------------------------------------------------
// Hardware-level ops
// ---------------------------------------------------------------------

PipelinedReader::Config
Raid2Server::readerConfig(std::vector<sim::Stage> out_stages,
                          sim::Tick out_setup)
{
    PipelinedReader::Config pcfg;
    pcfg.depth = cfg.pipelineDepth;
    pcfg.bufferBytes = cfg.pipelineBufferBytes;
    pcfg.outStages = std::move(out_stages);
    pcfg.outSetup = out_setup;
    pcfg.buffers = &_board->buffers();
    return pcfg;
}

void
Raid2Server::hwRead(std::uint64_t off, std::uint64_t len,
                    std::function<void()> done)
{
    PipelinedReader::start(eq, *_array, {Range{off, len}},
                           readerConfig({sim::Stage(_board->memory()),
                                         sim::Stage(_board->hippiSrcPort()),
                                         sim::Stage(_board->hippiDstPort()),
                                         sim::Stage(_board->memory())},
                                        cal::hippiSetupOverhead),
                           std::move(done));
}

void
Raid2Server::hwWrite(std::uint64_t off, std::uint64_t len,
                     std::function<void()> done)
{
    // Data arrives over the HIPPI loop into XBUS memory while the
    // array write (parity passes + disk commands) proceeds; the
    // operation completes when both finish.  The HIPPI path outruns
    // the array, so the overlap approximation is safe.
    auto pending = std::make_shared<int>(2);
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));
    auto finish = [pending, done_ptr] {
        if (--*pending == 0 && *done_ptr)
            (*done_ptr)();
    };
    _loop->transfer(len, finish);
    _array->write(off, len, finish);
}

// ---------------------------------------------------------------------
// LFS write path
// ---------------------------------------------------------------------

void
Raid2Server::noteDeviceWrite(std::uint64_t off, std::uint64_t len)
{
    if (!pendingWrites.empty()) {
        auto &last = pendingWrites.back();
        if (last.first + last.second == off) {
            last.second += len;
            return;
        }
    }
    pendingWrites.emplace_back(off, len);
}

void
Raid2Server::drainPendingWrites(std::function<void()> all_done)
{
    if (pendingWrites.empty()) {
        if (all_done)
            eq.scheduleIn(0, std::move(all_done));
        return;
    }
    auto batch = std::move(pendingWrites);
    pendingWrites.clear();

    auto remaining = std::make_shared<std::size_t>(batch.size());
    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(all_done));
    for (const auto &[off, len] : batch) {
        ++flushesInFlight;
        ++_segmentFlushes;
        _flushedBytes += len;
        const sim::Tick issued = eq.now();
        _array->write(off, len,
                      [this, len = len, issued, remaining, done_ptr] {
            if (auto *t = eq.tracer())
                t->complete(_name, "segment_flush", issued, eq.now(),
                            len);
            flushCompleted();
            if (--*remaining == 0 && *done_ptr)
                (*done_ptr)();
        });
    }
}

void
Raid2Server::flushCompleted()
{
    --flushesInFlight;
    while (!flushWaiters.empty() &&
           flushesInFlight < cfg.maxFlushesInFlight) {
        auto waiter = std::move(flushWaiters.front());
        flushWaiters.pop_front();
        waiter();
    }
}

void
Raid2Server::registerStats(sim::StatsRegistry &reg) const
{
    _board->registerStats(reg, "xbus");
    _array->registerStats(reg, "raid", "disk", "scsi");
    _host->registerStats(reg, "host");
    _ethernet->registerStats(reg, "ether");
    if (_faults) {
        _faults->registerStats(reg, "fault");
        _recovery->registerStats(reg, "recovery");
        _scrubber->registerStats(reg, "scrub");
    }
    if (verifyDev) {
        verifyDev->registerStats(reg, "integrity");
        _functional->registerStats(reg, "integrity.array");
        reg.addGauge("integrity.corrupt_reads", [this] {
            return static_cast<double>(_corruptReads);
        });
        reg.addGauge("integrity.net_retransmits", [this] {
            return static_cast<double>(_netRetransmits);
        });
    }
    fsCpu->registerStats(reg, "server.fs_cpu");
    reg.addGauge("server.segment_flushes", [this] {
        return static_cast<double>(_segmentFlushes);
    });
    reg.addGauge("server.flushed_bytes", [this] {
        return static_cast<double>(_flushedBytes);
    });
    reg.addGauge("server.restores", [this] {
        return static_cast<double>(_restores);
    });
    if (_fs) {
        // Capture the server, not the Lfs: remountFs() replaces the
        // file system object and would dangle a raw pointer.
        reg.addGauge("lfs.segments_written", [this] {
            return static_cast<double>(_fs->stats().segmentsWritten);
        });
        reg.addGauge("lfs.cleaner.segments_cleaned", [this] {
            return static_cast<double>(
                _fs->stats().cleanerSegmentsCleaned);
        });
        reg.addGauge("lfs.cleaner.blocks_copied", [this] {
            return static_cast<double>(
                _fs->stats().cleanerBlocksCopied);
        });
        reg.addGauge("lfs.checkpoints", [this] {
            return static_cast<double>(_fs->stats().checkpoints);
        });
        reg.addGauge("lfs.roll_forward_segments", [this] {
            return static_cast<double>(
                _fs->stats().rollForwardSegments);
        });
        reg.addGauge("lfs.free_segments", [this] {
            return static_cast<double>(_fs->freeSegments());
        });
        reg.addGauge("lfs.snapshots", [this] {
            return static_cast<double>(_fs->listSnapshots().size());
        });
        hookDev->registerStats(reg, "lfs.device");
    }
}

lfs::InodeNum
Raid2Server::createFile(const std::string &path)
{
    if (_fsOpObserver)
        _fsOpObserver({FsOp::Kind::Create, path, 0, 0, 0});
    const lfs::InodeNum ino = fs().create(path);
    return ino;
}

void
Raid2Server::fileWrite(lfs::InodeNum ino, std::uint64_t off,
                       std::uint64_t len, std::function<void()> done)
{
    // Synthesize a deterministic payload for benches that don't care
    // about the bytes.
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>((off + i) * 131 + ino);
    fileWriteData(ino, off, {data.data(), data.size()},
                  std::move(done));
}

void
Raid2Server::fileWriteData(lfs::InodeNum ino, std::uint64_t off,
                           std::span<const std::uint8_t> data,
                           std::function<void()> done)
{
    auto copy = std::make_shared<std::vector<std::uint8_t>>(
        data.begin(), data.end());
    // Per-request file system + network software cost (~3 ms, §3.4),
    // serialized on the server software path.
    fsCpu->submitBusyTime(cfg.fsWriteOverhead, [this, ino, off, copy,
                                                done =
                                                    std::move(done)]()
                                                   mutable {
        // Functional write: real bytes into the log; the host's
        // cached copy (if any) is now stale (§3.2: "The file system
        // keeps the two caches consistent").
        if (_fsOpObserver)
            _fsOpObserver({FsOp::Kind::Write, {}, ino, off,
                           copy->size()});
        _hostCache.invalidate(ino);
        fs().write(ino, off, {copy->data(), copy->size()});

        // Copy into the XBUS segment buffer.
        _board->memory().submit(copy->size(), [this,
                                               done = std::move(done)]()
                                                  mutable {
            drainPendingWrites(nullptr);
            if (flushesInFlight >= cfg.maxFlushesInFlight) {
                flushWaiters.push_back(std::move(done));
            } else if (done) {
                done();
            }
        });
    });
}

std::vector<Range>
Raid2Server::mapRanges(lfs::InodeNum ino, std::uint64_t off,
                       std::uint64_t len)
{
    std::vector<Range> ranges;
    for (const lfs::FileExtent &e : fs().mapFile(ino, off, len)) {
        if (!e.hole)
            ranges.push_back(Range{e.deviceOffset, e.bytes});
    }
    return ranges;
}

Status
Raid2Server::verifyRanges(const std::vector<Range> &ranges,
                          std::uint64_t len)
{
    if (!verifyDev)
        return Status::Ok;
    const std::uint32_t bs = verifyDev->blockSize();
    bool ok = true;
    for (const Range &r : ranges) {
        const std::uint64_t b0 = r.off / bs;
        const std::uint64_t b1 = std::min((r.off + r.len + bs - 1) / bs,
                                          verifyDev->numBlocks());
        if (r.len == 0 || b0 >= b1)
            continue;
        _verifyScratch.resize((b1 - b0) * bs);
        if (!verifyDev->verifiedReadRange(
                b0, b1 - b0,
                {_verifyScratch.data(), _verifyScratch.size()}))
            ok = false;
    }
    if (ok)
        return Status::Ok;
    ++_corruptReads;
    if (auto *t = eq.tracer())
        t->complete(_name, "data_corrupt_read", eq.now(), eq.now(), len);
    return Status::DataCorrupt;
}

void
Raid2Server::fileRead(lfs::InodeNum ino, std::uint64_t off,
                      std::uint64_t len, ReadDone done,
                      std::vector<sim::Stage> extra_out,
                      sim::Tick out_setup)
{
    fsCpu->submitBusyTime(cfg.fsReadOverhead, [this, ino, off, len,
                                               extra_out =
                                                   std::move(extra_out),
                                               out_setup,
                                               done = std::move(done)]()
                                                  mutable {
        // Verify-on-read with read-repair on the functional plane; the
        // timed transfer below ships whatever survived.
        std::vector<Range> ranges = mapRanges(ino, off, len);
        const Status st = verifyRanges(ranges, len);
        extra_out.insert(extra_out.begin(), sim::Stage(_board->memory()));
        auto finish = [this, st, len, done = std::move(done)]() mutable {
            if (_netFlipsArmed > 0) {
                --_netFlipsArmed;
                ++_netRetransmits;
                if (auto *t = eq.tracer())
                    t->complete(_name, "hippi_retransmit", eq.now(),
                                eq.now(), len);
                _loop->transfer(len,
                                [st, done = std::move(done)]() mutable {
                                    done(st);
                                });
                return;
            }
            done(st);
        };
        PipelinedReader::start(eq, *_array, std::move(ranges),
                               readerConfig(std::move(extra_out),
                                            out_setup),
                               std::move(finish));
    });
}

void
Raid2Server::scrubVerifyChunk(unsigned d, std::uint64_t off,
                              std::uint64_t len)
{
    if (!verifyDev)
        return;
    const raid::RaidLayout &lay = _functional->layout();
    const std::uint64_t span = _functional->diskData(0).size();
    if (off >= span)
        return; // timed array extends past the functional twin
    len = std::min(len, span - off);
    // Stripes the member-disk chunk intersects -> the logical blocks
    // they carry.  Verify (and repair) the data first: healing the
    // redundancy from an unverified copy would launder corruption
    // into the parity/mirror.
    const std::uint64_t unit = lay.unitBytes();
    const std::uint64_t s0 = off / unit;
    const std::uint64_t s1 = (off + len + unit - 1) / unit;
    const std::uint64_t sdb = lay.stripeDataBytes();
    const std::uint32_t bs = verifyDev->blockSize();
    const std::uint64_t b0 = (s0 * sdb) / bs;
    const std::uint64_t b1 =
        std::min((s1 * sdb + bs - 1) / bs, verifyDev->numBlocks());
    if (b0 < b1)
        verifyDev->scrubVerify(b0, b1 - b0);
    _functional->healRedundancyRange(d, off, len);
}

void
Raid2Server::fsSync(std::function<void()> done)
{
    fsCpu->submitBusyTime(0, [this, done = std::move(done)]() mutable {
        if (_fsOpObserver)
            _fsOpObserver({FsOp::Kind::Sync, {}, 0, 0, 0});
        fs().sync();
        drainPendingWrites(std::move(done));
    });
}

// ---------------------------------------------------------------------
// Standard mode (Ethernet through the host)
// ---------------------------------------------------------------------

void
Raid2Server::standardRead(lfs::InodeNum ino, std::uint64_t off,
                          std::uint64_t len, ReadDone done)
{
    // Verify-on-read (integrity only) comes first, before the host
    // cache is consulted: a cached copy is served only while the
    // blocks it came from still verify.
    const Status st = verifyDev ? verifyRanges(mapRanges(ino, off, len), len)
                                : Status::Ok;

    // Name lookup / request handling on the host.
    _host->chargeIoCompletion(true, nullptr);

    // Host file cache (§3.2): a resident file is served from host
    // memory — no XBUS or disk traffic at all.
    if (_hostCache.lookup(ino)) {
        fsCpu->submitBusyTime(
            cfg.fsReadOverhead,
            [this, len, st, done = std::move(done)]() mutable {
                _host->copyThroughMemory(
                    len, [this, len, st, done = std::move(done)]() mutable {
                        _ethernet->send(
                            len, [st, done = std::move(done)]() mutable {
                                done(st);
                            });
                    });
            });
        return;
    }
    // The read below brings the whole file into the host cache if it
    // fits.
    const std::uint64_t file_size = fs().statIno(ino).size;
    if (file_size > 0 && file_size <= _hostCache.capacity())
        _hostCache.insert(ino, file_size);

    fsCpu->submitBusyTime(cfg.fsReadOverhead, [this, ino, off, len, st,
                                               done = std::move(done)]()
                                                  mutable {
        const std::vector<Range> ranges = mapRanges(ino, off, len);
        auto remaining = std::make_shared<std::size_t>(ranges.size());
        auto done_ptr = std::make_shared<ReadDone>(std::move(done));
        auto after_reads = [this, done_ptr, len, st] {
            // XBUS -> slow VME link -> host backplane -> host memory
            // copies -> Ethernet to the client.
            std::vector<sim::Stage> stages = {
                sim::Stage(_board->memory()),
                sim::Stage(_board->hostLink(), cal::controlLinkReadMBs)};
            for (auto &stage : _host->dataPathStages())
                stages.push_back(stage);
            sim::Pipeline::start(
                eq, stages, len, cal::xbusChunkBytes,
                [this, done_ptr, len, st] {
                    _ethernet->send(len, [done_ptr, st] {
                        (*done_ptr)(st);
                    });
                });
        };
        if (ranges.empty()) {
            after_reads();
            return;
        }
        for (const Range &r : ranges) {
            _array->read(r.off, r.len,
                         [remaining, after_reads] {
                             if (--*remaining == 0)
                                 after_reads();
                         });
        }
    });
}

void
Raid2Server::standardWrite(lfs::InodeNum ino, std::uint64_t off,
                           std::uint64_t len, std::function<void()> done)
{
    _host->chargeIoCompletion(true, nullptr);

    auto done_ptr =
        std::make_shared<std::function<void()>>(std::move(done));

    // Client data arrives over the Ethernet, crosses host memory, and
    // descends the slow control link into XBUS memory.
    _ethernet->send(len, [this, ino, off, len, done_ptr] {
        std::vector<sim::Stage> stages = {_host->dataPathStages()[0],
                                          _host->dataPathStages()[1]};
        stages.push_back(
            sim::Stage(_board->hostLink(), cal::controlLinkWriteMBs));
        stages.push_back(sim::Stage(_board->memory()));
        sim::Pipeline::start(eq, stages, len, cal::xbusChunkBytes,
                             [this, ino, off, len, done_ptr] {
            const bool nvram = cfg.nvramBytes > 0;
            if (nvram) {
                // The NVRAM copy makes the write stable immediately;
                // the log flush continues behind the reply.
                fileWrite(ino, off, len, nullptr);
                _host->memoryCopy().submit(len, [done_ptr] {
                    if (*done_ptr)
                        (*done_ptr)();
                });
                return;
            }
            // NFSv2 stable write: reply only after the data is on the
            // disks.
            fileWrite(ino, off, len, [this, done_ptr] {
                fsSync([done_ptr] {
                    if (*done_ptr)
                        (*done_ptr)();
                });
            });
        });
    });
}

} // namespace raid2::server
