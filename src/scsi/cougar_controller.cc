#include "scsi/cougar_controller.hh"

#include <memory>
#include <utility>

#include "sim/join.hh"
#include "sim/logging.hh"

namespace raid2::scsi {

CougarController::CougarController(sim::EventQueue &eq, std::string name,
                                   double mb_per_sec)
    : _name(std::move(name)),
      _svc(eq, _name + ".ctrl", sim::Service::Config{mb_per_sec, 0, 1})
{
    for (unsigned i = 0; i < numStrings; ++i) {
        strings[i] = std::make_unique<ScsiString>(
            eq, _name + ".string" + std::to_string(i));
    }
}

ScsiString &
CougarController::string(unsigned idx)
{
    if (idx >= numStrings)
        sim::panic("Cougar %s: bad string index %u", _name.c_str(), idx);
    return *strings[idx];
}

const ScsiString &
CougarController::string(unsigned idx) const
{
    return const_cast<CougarController *>(this)->string(idx);
}

void
CougarController::registerStats(sim::StatsRegistry &reg,
                                const std::string &prefix) const
{
    _svc.registerStats(reg, prefix + ".ctrl");
    for (unsigned i = 0; i < numStrings; ++i)
        strings[i]->registerStats(reg,
                                  prefix + ".string" + std::to_string(i));
}

unsigned
CougarController::numDisks() const
{
    unsigned n = 0;
    for (const auto &s : strings)
        n += s->disks().size();
    return n;
}

DiskChannel::DiskChannel(disk::DiskModel &drive, ScsiString &string,
                         CougarController &cougar)
    : _drive(drive), _string(string), _cougar(cougar)
{
}

void
DiskChannel::read(std::uint64_t offset, std::uint64_t bytes,
                  std::vector<sim::Stage> downstream, sim::Event done)
{
    downstream.insert(downstream.begin(), {sim::Stage(_string.bus()),
                                           sim::Stage(_cougar.svc())});
    const sim::Pipeline transfer(downstream, bytes, cal::xbusChunkBytes,
                                 std::move(done));

    // The track buffer lets the bus drain data *while* the media read
    // continues: split the command into media sub-chunks, queued
    // back-to-back on the drive (the read-ahead window makes the
    // follow-ons positioning-free), each fed into the one transfer as
    // soon as it is buffered.
    _string.chargeCommandOverhead();
    std::uint64_t pos = offset;
    std::uint64_t left = bytes;
    while (left > 0) {
        const std::uint64_t chunk =
            std::min<std::uint64_t>(left, cal::xbusChunkBytes);
        _drive.submitBytes(pos, chunk, false,
                           [transfer, chunk] { transfer.feed(chunk); });
        pos += chunk;
        left -= chunk;
    }
}

void
DiskChannel::write(std::uint64_t offset, std::uint64_t bytes,
                   std::vector<sim::Stage> upstream, sim::Event done)
{
    upstream.push_back(sim::Stage(_cougar.svc()));
    upstream.push_back(sim::Stage(_string.bus()));

    // Two phases complete independently: the bus phase filling the
    // drive buffer and the media phase committing it.  The drive can
    // position while data streams in, but the command is only done
    // when both have finished.
    const sim::Join both(2, std::move(done));

    _string.chargeCommandOverhead();
    sim::Pipeline::start(upstream, bytes, cal::xbusChunkBytes, both);
    _drive.submitBytes(offset, bytes, true, both);
}

} // namespace raid2::scsi
