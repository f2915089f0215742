#include "net/hippi.hh"

#include <utility>

#include "sim/stats_registry.hh"
#include "sim/trace_sink.hh"

namespace raid2::net {

HippiChannel::HippiChannel(sim::EventQueue &eq_, std::string name,
                           sim::Service &src_port, sim::Service &dst_port,
                           sim::Tick setup_overhead)
    : eq(eq_), _name(std::move(name)), srcPort(src_port),
      dstPort(dst_port), setup(setup_overhead)
{
}

void
HippiChannel::injectLinkDown(sim::Tick duration)
{
    const sim::Tick until = eq.now() + duration;
    ++_linkDrops;
    _downTicks += duration;
    if (until > downUntil)
        downUntil = until;
    if (auto *t = eq.tracer())
        t->complete(_name, "link_down", eq.now(), until, 0);
}

void
HippiChannel::send(std::uint64_t bytes, std::vector<sim::Stage> pre,
                   std::vector<sim::Stage> post, sim::Event done)
{
    if (eq.now() < downUntil) {
        // Link is down: hold the packet and retry the connection when
        // the link recovers.  Re-entering send() re-checks downUntil,
        // so a drop extended meanwhile just defers again.
        ++_deferredSends;
        eq.schedule(downUntil,
                    [this, bytes, pre = std::move(pre),
                     post = std::move(post), done = std::move(done)]() mutable {
                        send(bytes, std::move(pre), std::move(post),
                             std::move(done));
                    });
        return;
    }

    ++_packets;
    _bytes += bytes;

    std::vector<sim::Stage> stages;
    for (auto &st : pre)
        stages.push_back(st);
    stages.push_back(sim::Stage(srcPort));
    stages.push_back(sim::Stage(dstPort));
    for (auto &st : post)
        stages.push_back(st);

    // The setup cost serializes on the source port: the host pokes the
    // HIPPI and XBUS control registers before data can move.
    srcPort.submitBusyTime(setup, nullptr);
    if (auto *t = eq.tracer()) {
        const auto span = t->begin(_name, "packet", bytes);
        sim::Pipeline::start(stages, bytes, cal::xbusChunkBytes,
                             [t, span, done = std::move(done)]() mutable {
                                 t->end(span);
                                 if (done)
                                     done();
                             });
        return;
    }
    sim::Pipeline::start(stages, bytes, cal::xbusChunkBytes,
                         std::move(done));
}

void
HippiChannel::registerStats(sim::StatsRegistry &reg,
                            const std::string &prefix) const
{
    reg.add(prefix + ".packets", _packets);
    reg.add(prefix + ".bytes", _bytes);
    reg.add(prefix + ".link_drops", _linkDrops);
    reg.add(prefix + ".deferred_sends", _deferredSends);
    reg.addGauge(prefix + ".down_ms",
                 [this] { return sim::ticksToMs(_downTicks); });
}

HippiLoopback::HippiLoopback(sim::EventQueue &eq, xbus::XbusBoard &board_)
    : board(board_),
      _channel(eq, board_.name() + ".hippiloop", board_.hippiSrcPort(),
               board_.hippiDstPort())
{
}

void
HippiLoopback::transfer(std::uint64_t bytes, sim::Event done)
{
    _channel.send(bytes, {sim::Stage(board.memory())},
                  {sim::Stage(board.memory())}, std::move(done));
}

} // namespace raid2::net
