/**
 * @file
 * Sampled-vs-exact benchmark: the speedup/accuracy harness behind the
 * headline claim of src/sample/ (billion-op runs at interactive
 * speed). Records a KILOTRC trace of a synthetic workload, replays it
 * exactly (every instruction in detail) and sampled (cluster
 * representatives only) on each requested machine, and reports
 * wall-clock speedup and relative IPC error per machine as JSON.
 *
 *     bench_sampled [--machines r10-64,kilo,dkip] [--workload mcf]
 *                   [--ops N] [--warmup W] [--interval L]
 *                   [--clusters K] [--trace path.ktrc]
 *                   [--json out.json] [--check-max-err PCT]
 *                   [--check-min-speedup X]
 *
 * With --check-max-err the exit status enforces the accuracy bound
 * (CI pins sampled error <= 2% on a small fixed trace); with
 * --check-min-speedup it also enforces the speedup floor the 100M-op
 * acceptance run demonstrates. --trace reuses an existing trace
 * instead of recording one (the 100M-op file takes a while to write);
 * without it the corpus goes to a fresh mkstemp file under $TMPDIR
 * (default /tmp) that is removed when the run ends, so concurrent
 * runs never share, truncate or leave behind a trace.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/sample/sampled_run.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

namespace
{

double
wallMs(const std::chrono::steady_clock::time_point &t0)
{
    // kilolint: allow(nondeterminism) wall-clock benchmark timing
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

struct Options
{
    std::vector<std::string> machines{"r10-64", "kilo", "dkip"};
    std::string workload = "mcf";
    uint64_t ops = 10'000'000;
    uint64_t warmup = 100'000;
    uint64_t interval = 0;       // 0: measure/50
    uint32_t clusters = 12;
    std::string traceFile;       // empty: record a fresh one
    std::string jsonPath;
    double checkMaxErr = -1.0;   // percent; <0: report only
    double checkMinSpeedup = -1.0;
};

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--machines a,b,c] [--workload name] [--ops N]\n"
        "          [--warmup W] [--interval L] [--clusters K]\n"
        "          [--trace path.ktrc] [--json out.json]\n"
        "          [--check-max-err PCT] [--check-min-speedup X]\n",
        argv0);
    return 2;
}

/** A recorded corpus file, deleted when it goes out of scope (empty
 *  path: nothing to delete). */
struct TempTrace
{
    std::string path;

    TempTrace() = default;
    TempTrace(const TempTrace &) = delete;
    TempTrace &operator=(const TempTrace &) = delete;

    ~TempTrace()
    {
        if (!path.empty())
            std::remove(path.c_str());
    }
};

} // anonymous namespace

// A function-try-block: an exception unwinds main's locals (removing
// the recorded corpus) before the handler reports it.
int
main(int argc, char **argv)
try {
    Options opt;
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
        if (arg == "--machines")
            opt.machines = splitCsv(value());
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--ops")
            opt.ops = std::strtoull(value(), nullptr, 10);
        else if (arg == "--warmup")
            opt.warmup = std::strtoull(value(), nullptr, 10);
        else if (arg == "--interval")
            opt.interval = std::strtoull(value(), nullptr, 10);
        else if (arg == "--clusters")
            opt.clusters =
                uint32_t(std::strtoul(value(), nullptr, 10));
        else if (arg == "--trace")
            opt.traceFile = value();
        else if (arg == "--json")
            opt.jsonPath = value();
        else if (arg == "--check-max-err")
            opt.checkMaxErr = std::strtod(value(), nullptr);
        else if (arg == "--check-min-speedup")
            opt.checkMinSpeedup = std::strtod(value(), nullptr);
        else
            return usage(argv[0]);
    }
    if (opt.ops <= opt.warmup) {
        std::fprintf(stderr, "--ops must exceed --warmup\n");
        return 2;
    }

    // Resolved before recording: an unknown name exits (KILO_FATAL,
    // no unwinding) before a temp file exists.
    std::vector<sim::MachineConfig> machines;
    for (const auto &name : opt.machines)
        machines.push_back(sim::MachineConfig::byName(name));

    // The corpus: one trace file both runs replay, so exact and
    // sampled consume the identical instruction stream.
    TempTrace recorded;
    std::string trace = opt.traceFile;
    if (trace.empty()) {
        auto inner = wload::makeWorkload(opt.workload);
        const char *dir = std::getenv("TMPDIR");
        trace = std::string(dir && *dir ? dir : "/tmp") +
                "/bench_sampled_" + opt.workload + "_XXXXXX";
        int fd = ::mkstemp(trace.data());
        if (fd < 0)
            throw std::runtime_error("cannot create " + trace);
        ::close(fd);
        recorded.path = trace;
        std::fprintf(stderr, "recording %llu ops of %s -> %s\n",
                     (unsigned long long)opt.ops,
                     opt.workload.c_str(), trace.c_str());
        trace::CapturingWorkload capture(*inner, trace, 0);
        isa::MicroOp buf[256];
        uint64_t left = opt.ops;
        while (left) {
            size_t got = capture.nextBlock(
                buf, size_t(std::min<uint64_t>(left, 256)));
            left -= got;
        }
        capture.finish();
    }

    sim::RunConfig exact_rc;
    exact_rc.warmupInsts = opt.warmup;
    exact_rc.measureInsts = opt.ops - opt.warmup;

    sim::RunConfig sampled_rc = exact_rc;
    sampled_rc.intervalInsts = opt.interval;
    sampled_rc.numClusters = opt.clusters;

    const std::string wl_name = "trace:" + trace;
    const mem::MemConfig mem = mem::MemConfig::mem400();

    bool fail = false;
    std::string json = "[";
    for (size_t m = 0; m < machines.size(); ++m) {
        const sim::MachineConfig &machine = machines[m];

        // kilolint: allow(nondeterminism) wall-clock benchmark timing
        auto t0 = std::chrono::steady_clock::now();
        sim::RunResult exact =
            sim::Simulator::run(machine, wl_name, mem, exact_rc);
        double exact_ms = wallMs(t0);

        // kilolint: allow(nondeterminism) wall-clock benchmark timing
        t0 = std::chrono::steady_clock::now();
        sample::SampledResult sampled = sample::runSampled(
            machine, wl_name, mem, sampled_rc);
        double sampled_ms = wallMs(t0);

        double rel_err =
            exact.ipc > 0.0
                ? std::fabs(sampled.result.ipc - exact.ipc) /
                      exact.ipc
                : 0.0;
        double speedup =
            sampled_ms > 0.0 ? exact_ms / sampled_ms : 0.0;

        char row[512];
        std::snprintf(
            row, sizeof row,
            "%s{\"machine\":\"%s\",\"workload\":\"%s\","
            "\"trace_ops\":%llu,"
            "\"exact_ipc\":%.6f,\"sampled_ipc\":%.6f,"
            "\"rel_err_pct\":%.4f,"
            "\"exact_ms\":%.1f,\"sampled_ms\":%.1f,"
            "\"speedup\":%.2f,"
            "\"intervals\":%llu,\"reps\":%llu}",
            m ? "," : "", machine.name.c_str(),
            opt.workload.c_str(), (unsigned long long)opt.ops,
            exact.ipc, sampled.result.ipc, 100.0 * rel_err,
            exact_ms, sampled_ms, speedup,
            (unsigned long long)sampled.totalIntervals,
            (unsigned long long)sampled.simulatedIntervals);
        json += row;
        std::printf("%-10s exact %.4f (%8.1f ms)  sampled %.4f "
                    "(%8.1f ms)  err %.3f%%  speedup %.2fx\n",
                    machine.name.c_str(), exact.ipc, exact_ms,
                    sampled.result.ipc, sampled_ms, 100.0 * rel_err,
                    speedup);

        if (opt.checkMaxErr >= 0.0 &&
            100.0 * rel_err > opt.checkMaxErr) {
            std::fprintf(stderr,
                         "FAIL %s: error %.3f%% exceeds bound "
                         "%.3f%%\n",
                         machine.name.c_str(), 100.0 * rel_err,
                         opt.checkMaxErr);
            fail = true;
        }
        if (opt.checkMinSpeedup > 0.0 &&
            speedup < opt.checkMinSpeedup) {
            std::fprintf(stderr,
                         "FAIL %s: speedup %.2fx below floor "
                         "%.2fx\n",
                         machine.name.c_str(), speedup,
                         opt.checkMinSpeedup);
            fail = true;
        }
    }
    json += "]\n";

    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << json;
    }
    return fail ? 1 : 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
}
