/**
 * @file
 * Pipeline timeline exporter (src/obs/).
 *
 *     pipeview [--machine M] [--workload W] [--mem MEM]
 *              [--warmup N] [--ops N] [--capacity N]
 *              [--konata PATH] [--chrome PATH] [--profile]
 *
 * Runs one (machine, workload, memory) simulation with an instruction
 * timeline attached to the measured region and renders the capture as
 * gem5 O3PipeView text (--konata; loadable by the Konata pipeline
 * viewer) and/or Chrome trace-event JSON (--chrome; loadable by
 * chrome://tracing and Perfetto). PATH may be "-" for stdout.
 *
 * Defaults (dkip / mcf / mem-400, no warm-up, 1000 measured ops)
 * are deliberately small and fully deterministic: the golden_pipeview
 * ctest regenerates the Konata export and diffs it against the
 * checked-in golden (tests/data/pipeview_1k.golden), so any timing
 * drift in the pipeline shows up as a readable per-instruction diff.
 * The capture starts cold (the timeline must attach before anything
 * is fetched, or a kilo-deep window truncates every early
 * lifecycle); pass --warmup to view steady-state behaviour instead.
 *
 * --profile prints the run's wall-time self-profile (warmup /
 * measure / finish phases) to stderr.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/obs/export.hh"
#include "src/obs/profiler.hh"
#include "src/obs/timeline.hh"
#include "src/sim/session.hh"

using namespace kilo;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--machine M] [--workload W] [--mem MEM]\n"
        "          [--warmup N] [--ops N] [--capacity N]\n"
        "          [--konata PATH] [--chrome PATH] [--profile]\n"
        "PATH may be '-' for stdout.\n",
        argv0);
    return 2;
}

/** Write @p text to @p path ('-' = stdout); dies on I/O failure. */
void
writeOut(const std::string &path, const std::string &text)
{
    std::FILE *f =
        path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "pipeview: cannot open %s\n",
                     path.c_str());
        std::exit(1);
    }
    // kilolint: allow(raw-serialization) viewer text to output file
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = n == text.size();
    if (f != stdout)
        ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::fprintf(stderr, "pipeview: short write to %s\n",
                     path.c_str());
        std::exit(1);
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string machine = "dkip";
    std::string workload = "mcf";
    std::string mem_name = "mem-400";
    uint64_t warmup = 0;
    uint64_t ops = 1000;
    uint64_t capacity = 1 << 16;
    std::string konata_path;
    std::string chrome_path;
    bool profile = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--machine") {
            machine = value();
        } else if (arg == "--workload") {
            workload = value();
        } else if (arg == "--mem") {
            mem_name = value();
        } else if (arg == "--warmup") {
            warmup = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--ops") {
            ops = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--capacity") {
            capacity = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--konata") {
            konata_path = value();
        } else if (arg == "--chrome") {
            chrome_path = value();
        } else if (arg == "--profile") {
            profile = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (konata_path.empty() && chrome_path.empty())
        konata_path = "-";

    try {
        sim::RunConfig rc;
        rc.warmupInsts = warmup;
        rc.measureInsts = ops;

        obs::Profiler prof;
        sim::Session session(sim::MachineConfig::byName(machine),
                             workload,
                             mem::MemConfig::byName(mem_name), rc);
        session.attachProfiler(profile ? &prof : nullptr);

        // Attach before warm-up: these machines keep kilo-deep
        // windows in flight, so attaching any later would truncate
        // the lifecycle head (fetch) of everything already fetched
        // ahead — which on a short run is every committed op.
        obs::Timeline timeline(capacity);
        session.core().attachTimeline(&timeline);
        session.run();
        session.core().attachTimeline(nullptr);
        sim::RunResult res = session.finish();

        if (!konata_path.empty())
            writeOut(konata_path, obs::konataText(timeline));
        if (!chrome_path.empty())
            writeOut(chrome_path, obs::chromeTraceJson(timeline));

        std::fprintf(stderr,
                     "pipeview: %s/%s/%s committed=%llu ipc=%.3f "
                     "events=%zu dropped=%llu\n",
                     res.machine.c_str(), res.workload.c_str(),
                     mem_name.c_str(),
                     (unsigned long long)res.stats.committed,
                     res.ipc, timeline.size(),
                     (unsigned long long)timeline.dropped());
        if (profile)
            std::fputs(prof.report().c_str(), stderr);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
