#include "check/artifact.hh"

#include <sstream>
#include <stdexcept>

namespace raid2::check {

namespace {

[[noreturn]] void
malformed(const std::string &what)
{
    throw std::runtime_error("artifact: " + what);
}

TrialSpec::Mode
modeFromName(const std::string &name)
{
    using M = TrialSpec::Mode;
    for (M m : {M::Cut, M::Torn, M::Dropped, M::Corrupt}) {
        if (name == TrialSpec::modeName(m))
            return m;
    }
    malformed("bad trial mode '" + name + "'");
}

std::string
nextLine(std::istringstream &in, const char *what)
{
    std::string line;
    if (!std::getline(in, line))
        malformed(std::string("truncated before ") + what);
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return line;
}

Op
parseOp(const std::string &line)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    Op op;
    auto need = [&](auto &...field) {
        (in >> ... >> field);
        if (in.fail())
            malformed("bad op line '" + line + "'");
    };
    if (kind == "create") {
        op.kind = Op::Kind::Create;
        need(op.path);
    } else if (kind == "mkdir") {
        op.kind = Op::Kind::Mkdir;
        need(op.path);
    } else if (kind == "write") {
        op.kind = Op::Kind::Write;
        need(op.path, op.off, op.len, op.dataSeed);
    } else if (kind == "truncate") {
        op.kind = Op::Kind::Truncate;
        need(op.path, op.len);
    } else if (kind == "rename") {
        op.kind = Op::Kind::Rename;
        need(op.path, op.path2);
    } else if (kind == "link") {
        op.kind = Op::Kind::Link;
        need(op.path, op.path2);
    } else if (kind == "unlink") {
        op.kind = Op::Kind::Unlink;
        need(op.path);
    } else if (kind == "rmdir") {
        op.kind = Op::Kind::Rmdir;
        need(op.path);
    } else if (kind == "sync") {
        op.kind = Op::Kind::Sync;
    } else if (kind == "checkpoint") {
        op.kind = Op::Kind::Checkpoint;
    } else if (kind == "clean") {
        op.kind = Op::Kind::Clean;
        need(op.len);
    } else if (kind == "snap_create") {
        op.kind = Op::Kind::SnapCreate;
        need(op.path);
    } else if (kind == "snap_delete") {
        op.kind = Op::Kind::SnapDelete;
        need(op.path);
    } else {
        malformed("unknown op '" + kind + "'");
    }
    return op;
}

SessionOp
parseSessionOp(const std::string &line)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    SessionOp op;
    auto need = [&](auto &...field) {
        (in >> ... >> field);
        if (in.fail())
            malformed("bad history line '" + line + "'");
    };
    if (kind == "open") {
        op.kind = SessionOp::Kind::Open;
        need(op.client, op.path);
    } else if (kind == "pwrite") {
        op.kind = SessionOp::Kind::PWrite;
        need(op.client, op.off, op.len);
    } else if (kind == "burst_write") {
        op.kind = SessionOp::Kind::BurstWrite;
        need(op.client, op.off, op.len);
    } else if (kind == "pread") {
        op.kind = SessionOp::Kind::PRead;
        need(op.client, op.off, op.len);
    } else if (kind == "seek") {
        op.kind = SessionOp::Kind::Seek;
        need(op.client, op.off);
    } else if (kind == "close") {
        op.kind = SessionOp::Kind::Close;
        need(op.client);
    } else if (kind == "sync") {
        op.kind = SessionOp::Kind::Sync;
        need(op.client);
    } else if (kind == "snap_create") {
        op.kind = SessionOp::Kind::SnapCreate;
        need(op.client, op.path);
    } else if (kind == "snap_delete") {
        op.kind = SessionOp::Kind::SnapDelete;
        need(op.client, op.path);
    } else {
        malformed("unknown history op '" + kind + "'");
    }
    return op;
}

fault::FaultKind
faultKindFromName(const std::string &name)
{
    using K = fault::FaultKind;
    for (K k : {K::DiskFail, K::LatentError, K::DiskStall, K::ScsiHang,
                K::XbusPortError, K::HippiLinkDrop,
                K::SilentCorruption}) {
        if (name == fault::faultKindName(k))
            return k;
    }
    malformed("unknown fault kind '" + name + "'");
}

CheckConfig
parseConfigLine(std::istringstream &in)
{
    CheckConfig cfg;
    std::istringstream ln(nextLine(in, "config"));
    std::string tag;
    unsigned autoclean = 0;
    ln >> tag >> cfg.blockSize >> cfg.numBlocks >> cfg.segBlocks >>
        cfg.maxInodes >> autoclean;
    if (ln.fail() || tag != "config")
        malformed("bad config line");
    cfg.autoClean = autoclean != 0;
    return cfg;
}

std::size_t
parseCountLine(std::istringstream &in, const char *what)
{
    std::istringstream ln(nextLine(in, what));
    std::string tag;
    std::size_t n = 0;
    ln >> tag >> n;
    if (ln.fail() || tag != what)
        malformed(std::string("bad ") + what + " line");
    return n;
}

TrialSpec
parseTrialLine(std::istringstream &in)
{
    TrialSpec trial;
    std::istringstream ln(nextLine(in, "trial"));
    std::string tag, mode;
    unsigned mask = 0;
    ln >> tag >> mode >> trial.cut >> trial.target >> mask >>
        trial.forceBarrier;
    if (ln.fail() || tag != "trial")
        malformed("bad trial line");
    trial.mode = modeFromName(mode);
    trial.xorMask = static_cast<std::uint8_t>(mask);
    return trial;
}

} // namespace

std::string
Artifact::serialize() const
{
    std::ostringstream out;
    const auto *hist = std::get_if<ServerHistory>(&program);
    out << (hist ? "raid2-check v2\n" : "raid2-check v1\n");
    out << "config " << cfg.blockSize << " " << cfg.numBlocks << " "
        << cfg.segBlocks << " " << cfg.maxInodes << " "
        << (cfg.autoClean ? 1 : 0) << "\n";
    if (!hist) {
        const auto &ops = std::get<std::vector<Op>>(program);
        out << "ops " << ops.size() << "\n";
        for (const Op &op : ops)
            out << op.str() << "\n";
    } else {
        out << "clients " << hist->clients << "\n";
        out << "history " << hist->ops.size() << "\n";
        for (const SessionOp &op : hist->ops)
            out << op.str() << "\n";
        out << "faults " << hist->faults.events.size() << "\n";
        for (const fault::FaultEvent &e : hist->faults.events) {
            out << e.at << " " << fault::faultKindName(e.kind) << " "
                << e.target << " " << e.offset << " " << e.bytes << " "
                << e.duration;
            // The corruption surface rides as an optional trailing
            // column so pre-integrity artifacts stay parseable.
            if (e.kind == fault::FaultKind::SilentCorruption)
                out << " " << fault::corruptionSurfaceName(e.surface);
            out << "\n";
        }
    }
    out << "trial " << TrialSpec::modeName(trial.mode) << " "
        << trial.cut << " " << trial.target << " "
        << unsigned(trial.xorMask) << " " << trial.forceBarrier << "\n";
    out << "diffs " << diffs.size() << "\n";
    for (const std::string &d : diffs)
        out << d << "\n";
    out << "end\n";
    return out.str();
}

Artifact
Artifact::parse(const std::string &text)
{
    std::istringstream in(text);
    Artifact art;

    const std::string header = nextLine(in, "header");
    if (header != "raid2-check v1" && header != "raid2-check v2")
        malformed("bad header (want 'raid2-check v1' or 'raid2-check "
                  "v2')");

    art.cfg = parseConfigLine(in);

    if (header == "raid2-check v1") {
        const std::size_t nops = parseCountLine(in, "ops");
        std::vector<Op> ops;
        ops.reserve(nops);
        for (std::size_t i = 0; i < nops; ++i)
            ops.push_back(parseOp(nextLine(in, "op")));
        art.program = std::move(ops);
    } else {
        ServerHistory hist;
        hist.clients =
            static_cast<unsigned>(parseCountLine(in, "clients"));
        const std::size_t nops = parseCountLine(in, "history");
        hist.ops.reserve(nops);
        for (std::size_t i = 0; i < nops; ++i)
            hist.ops.push_back(
                parseSessionOp(nextLine(in, "history op")));

        const std::size_t nfaults = parseCountLine(in, "faults");
        for (std::size_t i = 0; i < nfaults; ++i) {
            std::istringstream ln(nextLine(in, "fault"));
            fault::FaultEvent e;
            std::string kind;
            ln >> e.at >> kind >> e.target >> e.offset >> e.bytes >>
                e.duration;
            if (ln.fail())
                malformed("bad fault line");
            e.kind = faultKindFromName(kind);
            if (e.kind == fault::FaultKind::SilentCorruption) {
                std::string surface;
                // Tolerate an absent column (older artifacts): Media.
                if (ln >> surface &&
                    !fault::corruptionSurfaceFromName(surface.c_str(),
                                                      e.surface))
                    malformed("unknown corruption surface '" + surface +
                              "'");
            }
            hist.faults.events.push_back(e);
        }
        art.program = std::move(hist);
    }

    art.trial = parseTrialLine(in);

    const std::size_t ndiffs = parseCountLine(in, "diffs");
    art.diffs.reserve(ndiffs);
    for (std::size_t i = 0; i < ndiffs; ++i)
        art.diffs.push_back(nextLine(in, "diff"));

    if (nextLine(in, "end") != "end")
        malformed("missing end marker");
    return art;
}

} // namespace raid2::check
