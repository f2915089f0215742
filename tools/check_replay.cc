/**
 * @file
 * Replay (and produce) crash-consistency checker artifacts.
 *
 *   check_replay <artifact>          replay a shrunk failing trial and
 *                                    verify it reproduces byte-for-byte
 *                                    (dispatches on the header line:
 *                                    v1 = bare-Lfs op list, v2 = whole-
 *                                    server concurrent history)
 *   check_replay --demo [out]        inject a deliberate durability
 *                                    violation (drop an acknowledged
 *                                    segment-summary write), shrink it,
 *                                    write the artifact, replay it
 *   check_replay --sweep <seed> [n]  full crash-point enumeration for
 *                                    one workload seed (n ops)
 *   check_replay --server --demo [out]
 *   check_replay --server --sweep <seed> [n]
 *                                    same, against a full Raid2Server
 *                                    with concurrent clients and fault
 *                                    injection ("raid2-check v2")
 *
 * Append --stats to any command to dump the check.server.* coverage
 * counters (op mix, crash points, fault firings, retry coverage) after
 * the run.  See docs/TESTING.md.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifact.hh"
#include "check/shrinker.hh"
#include "check/workload_gen.hh"
#include "sim/stats_registry.hh"

using namespace raid2;
using namespace raid2::check;

namespace {

bool statsWanted = false;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: check_replay <artifact> [--stats]\n"
        "       check_replay --demo [out-file]\n"
        "       check_replay --sweep <seed> [num-ops]\n"
        "       check_replay --server --demo [out-file]\n"
        "       check_replay --server --sweep <seed> [num-ops]\n"
        "\n"
        "replays a 'raid2-check v1' (bare Lfs op list) or\n"
        "'raid2-check v2' (concurrent Raid2Server history + fault\n"
        "schedule) artifact; the version is read from the header line.\n"
        "--stats dumps the check.server.* coverage counters after any\n"
        "command.\n"
        "\n"
        "exit status:\n"
        "  0  sweep found no violations, or the artifact reproduced\n"
        "     byte-for-byte\n"
        "  1  sweep found a violation, or the replayed verdict\n"
        "     mismatched the artifact's recorded diffs\n"
        "  2  harness error (bad usage, unreadable or malformed\n"
        "     artifact, internal failure)\n");
    return 2;
}

void
dumpServerStats()
{
    sim::StatsRegistry reg;
    ServerExplorer::registerStats(reg);
    reg.dump(std::cout);
}

int
finish(int code)
{
    if (statsWanted)
        dumpServerStats();
    return code;
}

std::size_t
numOps(const Program &prog)
{
    if (const auto *hist = std::get_if<ServerHistory>(&prog))
        return hist->ops.size();
    return std::get<std::vector<Op>>(prog).size();
}

/** Seeded program of the chosen kind; @p num_ops = 0 keeps the
 *  generator's default length. */
Program
generate(bool server, std::uint64_t seed, unsigned num_ops,
         bool faults = true)
{
    if (server) {
        ServerGenConfig gcfg;
        if (num_ops > 0)
            gcfg.numOps = num_ops;
        gcfg.withFaults = faults;
        return generateServerHistory(seed, gcfg);
    }
    GenConfig gcfg;
    if (num_ops > 0)
        gcfg.numOps = num_ops;
    return generateWorkload(seed, gcfg);
}

int
writeArtifact(const Artifact &art, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "check_replay: cannot write %s\n",
                     path.c_str());
        return 2;
    }
    out << art.serialize();
    return 0;
}

/** Replay @p path's trial and compare with its recorded diffs. */
int
replayFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "check_replay: cannot open %s\n",
                     path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const Artifact art = Artifact::parse(buf.str());

    if (const auto *hist = std::get_if<ServerHistory>(&art.program)) {
        std::printf("server artifact: %u clients, %zu history ops, "
                    "%zu faults, trial %s\n",
                    hist->clients, hist->ops.size(),
                    hist->faults.events.size(), art.trial.str().c_str());
    } else {
        std::printf("artifact: %zu ops, trial %s\n",
                    numOps(art.program), art.trial.str().c_str());
    }
    const TrialResult r =
        CrashExplorer::runTrial(capture(art.program, art.cfg), art.trial);

    std::printf("replayed verdict (%zu diffs):\n", r.diffs.size());
    for (const auto &d : r.diffs)
        std::printf("  %s\n", d.c_str());

    if (r.diffs == art.diffs) {
        std::printf("reproduced byte-for-byte: OK\n");
        return 0;
    }
    std::printf("MISMATCH vs artifact (expected %zu diffs):\n",
                art.diffs.size());
    for (const auto &d : art.diffs)
        std::printf("  %s\n", d.c_str());
    return 1;
}

int
demo(bool server, const std::string &out_path)
{
    // Seed 7 has enough synced data that severing the roll-forward
    // chain provably loses acknowledged state.  The server history
    // runs with faults off: the injected drop must be flagged by the
    // durability oracle alone, not masked by scripted device trouble.
    const Program prog = generate(server, 7, server ? 0 : 40, false);
    const CheckConfig cfg;

    auto pred = [&](const Program &cand) {
        return CrashExplorer::findAckedDrop(capture(cand, cfg));
    };

    if (!pred(prog)) {
        std::fprintf(stderr,
                     "demo: injected drop not flagged — oracle or "
                     "generator regression\n");
        return 1;
    }

    std::printf("injected violation: dropping an acknowledged "
                "segment-summary write%s\n",
                server ? " under a concurrent history" : "");
    const Shrinker::Result res = Shrinker::shrink(prog, pred);
    std::printf("shrunk %zu ops -> %zu ops in %zu attempts\n",
                numOps(prog), numOps(res.program), res.attempts);

    const Artifact art{cfg, res.program, res.witness.spec,
                       res.witness.diffs};
    if (const int rc = writeArtifact(art, out_path))
        return rc;
    std::printf("artifact written to %s\n", out_path.c_str());

    return replayFile(out_path);
}

int
sweep(bool server, std::uint64_t seed, unsigned num_ops)
{
    const Program prog = generate(server, seed, num_ops);
    const CheckConfig cfg;
    const Capture cap = capture(prog, cfg);
    const auto seedNum = static_cast<unsigned long long>(seed);
    if (const auto *hist = std::get_if<ServerHistory>(&prog)) {
        std::printf("seed %llu: %u clients, %zu history ops -> %zu "
                    "applied ops, %zu blocks written, %zu barriers, "
                    "%zu faults\n",
                    seedNum, hist->clients, hist->ops.size(),
                    cap.ops.size(), cap.log.numBlocks(),
                    cap.log.barriers().size(),
                    hist->faults.events.size());
    } else {
        std::printf("seed %llu: %zu ops, %zu blocks written "
                    "(%zu extents), %zu barriers\n",
                    seedNum, cap.ops.size(), cap.log.numBlocks(),
                    cap.log.entries().size(), cap.log.barriers().size());
    }

    const ExploreReport rep = explore(prog, cap);
    std::printf("%zu trials, %zu violations\n", rep.trials,
                rep.failures.size());
    if (rep.failures.empty())
        return 0;

    const Failure &f = rep.failures.front();
    std::printf("first failure: %s\n", f.spec.str().c_str());
    for (const auto &d : f.diffs)
        std::printf("  %s\n", d.c_str());

    // Shrink against "any legal-enumeration failure" and save it.
    auto pred = [&](const Program &cand) -> std::optional<Failure> {
        ExploreReport r = explore(cand, cfg, {.stopAtFirst = true});
        if (r.failures.empty())
            return std::nullopt;
        return r.failures.front();
    };
    const Shrinker::Result res = Shrinker::shrink(prog, pred);

    const std::string out_path =
        std::string(server ? "servercheck" : "check") + "-seed" +
        std::to_string(seed) + ".artifact";
    writeArtifact(Artifact{cfg, res.program, res.witness.spec,
                           res.witness.diffs},
                  out_path);
    std::printf("shrunk to %zu ops; artifact: %s\n",
                numOps(res.program), out_path.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    for (auto it = args.begin(); it != args.end();) {
        if (*it == "--stats") {
            statsWanted = true;
            it = args.erase(it);
        } else {
            ++it;
        }
    }
    if (args.empty())
        return statsWanted ? finish(0) : usage();

    std::string cmd = args[0];
    bool server = false;
    if (cmd == "--server") {
        server = true;
        args.erase(args.begin());
        if (args.empty())
            return usage();
        cmd = args[0];
    }

    try {
        if (cmd == "--help" || cmd == "-h") {
            usage();
            return 0;
        }
        if (cmd == "--demo") {
            const std::string out =
                args.size() > 1 ? args[1]
                : server        ? "servercheck-demo.artifact"
                                : "check-demo.artifact";
            return finish(demo(server, out));
        }
        if (cmd == "--sweep") {
            if (args.size() < 2)
                return usage();
            const std::uint64_t seed =
                std::strtoull(args[1].c_str(), nullptr, 0);
            const unsigned n =
                args.size() > 2 ? static_cast<unsigned>(std::strtoul(
                                      args[2].c_str(), nullptr, 0))
                                : 0;
            return finish(sweep(server, seed, n));
        }
        if (cmd[0] == '-' || server)
            return usage();
        return finish(replayFile(cmd));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "check_replay: %s\n", e.what());
        return 2;
    }
}
