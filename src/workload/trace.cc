#include "workload/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace raid2::workload {

namespace {

char
kindChar(TraceRecord::Kind k)
{
    switch (k) {
      case TraceRecord::Kind::Read: return 'R';
      case TraceRecord::Kind::Write: return 'W';
      case TraceRecord::Kind::Create: return 'C';
      case TraceRecord::Kind::Unlink: return 'U';
    }
    return '?';
}

TraceRecord::Kind
charKind(char c)
{
    switch (c) {
      case 'R': return TraceRecord::Kind::Read;
      case 'W': return TraceRecord::Kind::Write;
      case 'C': return TraceRecord::Kind::Create;
      case 'U': return TraceRecord::Kind::Unlink;
      default:
        throw std::runtime_error(std::string("bad trace op '") + c +
                                 "'");
    }
}

} // namespace

Trace
Trace::parse(std::istream &in)
{
    Trace t;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        double ms;
        char op;
        if (!(ls >> ms >> op))
            continue; // blank/comment line
        TraceRecord rec;
        rec.when = sim::msToTicks(ms);
        rec.kind = charKind(op);
        if (!(ls >> rec.path) || rec.path.empty() || rec.path[0] != '/')
            throw std::runtime_error(
                "trace line " + std::to_string(lineno) +
                ": missing or relative path");
        if (rec.kind == TraceRecord::Kind::Read ||
            rec.kind == TraceRecord::Kind::Write) {
            if (!(ls >> rec.offset >> rec.bytes))
                throw std::runtime_error(
                    "trace line " + std::to_string(lineno) +
                    ": R/W need offset and bytes");
        }
        if (!t.recs.empty() && rec.when < t.recs.back().when)
            throw std::runtime_error(
                "trace line " + std::to_string(lineno) +
                ": timestamps must be non-decreasing");
        t.recs.push_back(std::move(rec));
    }
    return t;
}

void
Trace::save(std::ostream &out) const
{
    out << "# raid2 trace: <ms> R|W|C|U <path> [<offset> <bytes>]\n";
    for (const auto &r : recs) {
        out << sim::ticksToMs(r.when) << ' ' << kindChar(r.kind) << ' '
            << r.path;
        if (r.kind == TraceRecord::Kind::Read ||
            r.kind == TraceRecord::Kind::Write) {
            out << ' ' << r.offset << ' ' << r.bytes;
        }
        out << '\n';
    }
}

void
Trace::add(TraceRecord rec)
{
    if (!recs.empty() && rec.when < recs.back().when)
        sim::panic("Trace::add: out-of-order record");
    recs.push_back(std::move(rec));
}

std::uint64_t
Trace::totalBytes() const
{
    std::uint64_t n = 0;
    for (const auto &r : recs) {
        if (r.kind == TraceRecord::Kind::Read ||
            r.kind == TraceRecord::Kind::Write) {
            n += r.bytes;
        }
    }
    return n;
}

Trace
Trace::synthesizeOffice(unsigned clients, sim::Tick duration,
                        std::uint64_t seed)
{
    sim::Random rng(seed);
    Trace t;

    struct File
    {
        std::string path;
        std::uint64_t size = 0;
        bool created = false;
    };
    // Per client: a pool of small files and a couple of big ones.
    std::vector<std::vector<File>> small(clients), big(clients);
    for (unsigned c = 0; c < clients; ++c) {
        for (int i = 0; i < 12; ++i) {
            small[c].push_back(
                {"/u" + std::to_string(c) + "/f" + std::to_string(i),
                 0, false});
        }
        for (int i = 0; i < 2; ++i) {
            big[c].push_back(
                {"/u" + std::to_string(c) + "/big" + std::to_string(i),
                 0, false});
        }
    }

    // Each client emits roughly one operation every 200 ms, with the
    // classic office skew: mostly whole-file reads of small files,
    // bursty small writes, occasional large sequential reads.
    std::vector<sim::Tick> next(clients);
    for (unsigned c = 0; c < clients; ++c)
        next[c] = sim::msToTicks(rng.unit() * 200.0);

    std::vector<TraceRecord> out;
    auto emit = [&out](sim::Tick when, TraceRecord::Kind k,
                       const std::string &path, std::uint64_t off,
                       std::uint64_t bytes) {
        out.push_back(TraceRecord{when, k, path, off, bytes});
    };

    bool work_left = true;
    while (work_left) {
        // Pick the client with the earliest next-op time.
        unsigned c = 0;
        for (unsigned i = 1; i < clients; ++i) {
            if (next[i] < next[c])
                c = i;
        }
        if (next[c] > duration) {
            work_left = false;
            break;
        }
        const sim::Tick now = next[c];
        next[c] += sim::msToTicks(50.0 + rng.exponential(150.0));

        const double dice = rng.unit();
        if (dice < 0.55) {
            // Whole read of a small file (if it exists yet).
            File &f = small[c][rng.below(small[c].size())];
            if (f.created && f.size > 0)
                emit(now, TraceRecord::Kind::Read, f.path, 0, f.size);
        } else if (dice < 0.80) {
            // Burst of small writes to one file (create on demand).
            File &f = small[c][rng.below(small[c].size())];
            if (!f.created) {
                emit(now, TraceRecord::Kind::Create, f.path, 0, 0);
                f.created = true;
            }
            const unsigned burst = 1 + static_cast<unsigned>(
                rng.below(4));
            for (unsigned b = 0; b < burst; ++b) {
                const std::uint64_t len = 512 + rng.below(16 * 1024);
                emit(now + b * sim::msToTicks(2.0),
                     TraceRecord::Kind::Write, f.path, f.size, len);
                f.size += len;
            }
        } else if (dice < 0.92) {
            // Sequential chunk of a big file.
            File &f = big[c][rng.below(big[c].size())];
            if (!f.created) {
                emit(now, TraceRecord::Kind::Create, f.path, 0, 0);
                f.created = true;
            }
            if ((rng.chance(0.5) && f.size < 8 * 1024 * 1024) ||
                f.size == 0) {
                // Grow the file up to a cap, then cycle to overwrites
                // so a long trace's live set stays bounded.
                const std::uint64_t len = 256 * 1024;
                emit(now, TraceRecord::Kind::Write, f.path, f.size,
                     len);
                f.size += len;
            } else if (rng.chance(0.5)) {
                const std::uint64_t len = 256 * 1024;
                const std::uint64_t off =
                    rng.below(f.size / len) * len;
                emit(now, TraceRecord::Kind::Write, f.path, off, len);
            } else {
                const std::uint64_t off =
                    rng.below(f.size / 65536 + 1) * 65536;
                emit(now, TraceRecord::Kind::Read, f.path,
                     std::min(off, f.size - 1),
                     std::min<std::uint64_t>(256 * 1024,
                                             f.size -
                                                 std::min(off,
                                                          f.size - 1)));
            }
        } else {
            // Delete + recreate churn.
            File &f = small[c][rng.below(small[c].size())];
            if (f.created) {
                emit(now, TraceRecord::Kind::Unlink, f.path, 0, 0);
                f.created = false;
                f.size = 0;
            }
        }
    }

    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.when < b.when;
                     });
    for (auto &r : out)
        t.add(std::move(r));
    return t;
}

TraceReplayer::Results
TraceReplayer::replay(sim::EventQueue &eq, server::Raid2Server &server,
                      const Trace &trace, const Config &cfg)
{
    struct State
    {
        Results res;
        std::size_t issued = 0;
        std::size_t finished = 0;
        std::map<std::string, lfs::InodeNum> files;
    };
    auto st = std::make_shared<State>();

    // Pre-pass: the namespace directories traces reference.
    for (const auto &r : trace.records()) {
        const auto slash = r.path.rfind('/');
        if (slash != 0 && slash != std::string::npos) {
            const std::string dir = r.path.substr(0, slash);
            if (!server.fs().exists(dir))
                server.fs().mkdir(dir);
        }
    }

    auto ino_of = [&server, st](const std::string &path) {
        auto it = st->files.find(path);
        if (it != st->files.end())
            return it->second;
        const auto ino = server.fs().exists(path)
                             ? server.fs().lookup(path)
                             : server.fs().create(path);
        st->files[path] = ino;
        return ino;
    };

    const sim::Tick t0 = eq.now();
    auto run_one = [&eq, &server, st, ino_of,
                    cfg](const TraceRecord &r,
                         std::function<void()> done) {
        const sim::Tick start = eq.now();
        auto finish = [&eq, st, start, done = std::move(done)] {
            ++st->finished;
            st->res.latencyMs.sample(sim::ticksToMs(eq.now() - start));
            if (done)
                done();
        };
        switch (r.kind) {
          case TraceRecord::Kind::Create:
            ino_of(r.path);
            ++st->res.creates;
            eq.scheduleIn(0, finish);
            break;
          case TraceRecord::Kind::Unlink:
            if (server.fs().exists(r.path)) {
                server.fs().unlink(r.path);
                st->files.erase(r.path);
            }
            ++st->res.unlinks;
            eq.scheduleIn(0, finish);
            break;
          case TraceRecord::Kind::Write:
            st->res.writeBytes += r.bytes;
            server.fileWrite(ino_of(r.path), r.offset, r.bytes, finish);
            break;
          case TraceRecord::Kind::Read: {
            st->res.readBytes += r.bytes;
            const auto ino = ino_of(r.path);
            const auto size = server.fs().statIno(ino).size;
            const auto len = r.offset >= size
                                 ? 0
                                 : std::min(r.bytes, size - r.offset);
            if (len == 0) {
                eq.scheduleIn(0, finish);
                break;
            }
            auto read_done = [finish](server::Status) { finish(); };
            if (cfg.standardMode)
                server.standardRead(ino, r.offset, len, read_done);
            else
                server.fileRead(ino, r.offset, len, read_done);
            break;
          }
        }
    };

    st->res.ops = trace.size();
    if (cfg.paced) {
        for (const auto &r : trace.records()) {
            ++st->issued;
            eq.schedule(t0 + r.when,
                        [&run_one, &r] { run_one(r, nullptr); });
        }
        eq.runUntilDone([st, total = trace.size()] {
            return st->finished >= total;
        });
    } else {
        // Closed loop: one outstanding at a time.
        std::function<void(std::size_t)> step = [&](std::size_t i) {
            if (i >= trace.size())
                return;
            run_one(trace.records()[i],
                    [&step, i] { step(i + 1); });
        };
        step(0);
        eq.runUntilDone([st, total = trace.size()] {
            return st->finished >= total;
        });
    }
    st->res.elapsed = eq.now() - t0;
    return st->res;
}

} // namespace raid2::workload
