/**
 * @file
 * Benchmark program: runs one named workload through the simulator's
 * public entry points (sim::Session, sample::runSampled,
 * trace::CapturingWorkload / TraceWorkload, mem::MemoryHierarchy,
 * pred::makePredictor, wload::makeWorkload) in this one process and
 * thread, and prints raw records on stdout, one per line:
 *
 *     kilobench --workload fig9-memwall --seed 0 --seconds 40
 *               --trace 0 --dir scratch/
 *
 * Each line is "<type> <job> <json object>"; job is 0 for records that
 * belong to no job, and a "row" record's object is the job's JSONL row
 * exactly as sim::runResultJson writes it. Records are held in memory
 * and written when the run ends, so printing never lands inside a
 * timed region. perfbench/run.py turns them into metrics and checks
 * them; this file only runs and times.
 *
 * A run repeats whole passes of the workload while another pass is
 * expected to end within --seconds. The sampled workload first records
 * its traces SetupRepeats times (its setup, timed apart from the
 * passes). With --trace 1 passes alternate untraced and traced (spans
 * are recorded only in the traced ones), and the run ends with
 * standalone layer probes that no pass wall includes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/hierarchy.hh"
#include "src/pred/predictor.hh"
#include "src/sample/sampled_run.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/stats/json.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/trace/trace_writer.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

namespace
{

uint64_t
nowNs()
{
    // kilolint: allow(nondeterminism) host-time benchmark clock
    auto t = std::chrono::steady_clock::now().time_since_epoch();
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t)
            .count());
}

/**
 * Span recorder. Every timed call returns its duration whether or
 * not tracing is on; spans (name, start, end, parent, job) are kept
 * only when it is.
 */
class Tracer
{
  public:
    bool on = false;
    uint64_t pass = 0;

    class Span
    {
      public:
        Span(Tracer &t, const char *name, uint64_t job,
             uint64_t parent = 0)
            : tr(t), nm(name), jb(job), par(parent), id_(t.nextId++),
              start(nowNs())
        {}

        ~Span() { stop(); }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** End the span now; returns its duration in ns. */
        uint64_t
        stop()
        {
            if (!end) {
                end = nowNs();
                if (tr.on)
                    tr.emit("span", jb,
                            stats::JsonRowBuilder()
                                .field("pass", tr.pass)
                                .field("id", id_)
                                .field("parent", par)
                                .field("name", nm)
                                .field("start", start)
                                .field("end", end));
            }
            return end - start;
        }

        uint64_t id() const { return id_; }

      private:
        Tracer &tr;
        const char *nm;
        uint64_t jb, par, id_, start, end = 0;
    };

    /** Hold one output line: "<type> <job> <object>". */
    void
    emit(const char *type, uint64_t job, const std::string &object)
    {
        records.push_back(std::string(type) + " " + std::to_string(job) +
                          " " + object);
    }

    void
    emit(const char *type, uint64_t job, const stats::JsonRowBuilder &b)
    {
        emit(type, job, b.str());
    }

    std::vector<std::string> records;

  private:
    uint64_t nextId = 1;
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 40.0;
    bool trace = false;
    std::string dir = ".";
};

const char *
kindName(sim::MachineKind k)
{
    switch (k) {
      case sim::MachineKind::Ooo: return "ooo";
      case sim::MachineKind::Kilo: return "kilo";
      case sim::MachineKind::Dkip: return "dkip";
    }
    return "?";
}

/** Commit width of the core @p mc instantiates. */
uint64_t
commitWidth(const sim::MachineConfig &mc)
{
    switch (mc.kind) {
      case sim::MachineKind::Ooo: return uint64_t(mc.cp.commitWidth);
      case sim::MachineKind::Kilo: return uint64_t(mc.kilo.cp.commitWidth);
      case sim::MachineKind::Dkip: return uint64_t(mc.dkip.cp.commitWidth);
    }
    return 0;
}

/**
 * The preset's profile; seed 0 keeps the preset's own generator
 * seed (the inputs bench_fig09 runs), any other value re-seeds it.
 */
wload::WorkloadProfile
profileFor(const std::string &preset, uint64_t seed)
{
    wload::WorkloadProfile p = wload::profileByName(preset);
    if (seed)
        p.seed = p.seed * 0x9e3779b97f4a7c15ull + seed;
    return p;
}

stats::JsonRowBuilder
statsJson(const stats::Snapshot &snap)
{
    stats::JsonRowBuilder b;
    for (const auto &e : snap.entries)
        if (e.kind != stats::Kind::Histogram)
            b.field(e);
    return b;
}

const std::vector<std::string> Fig9Machines{"r10-64", "r10-256",
                                            "r10-768", "kilo", "dkip"};
const std::vector<std::string> SampledMachines{"r10-64", "kilo", "dkip"};
const std::vector<std::string> SampledPresets{"mcf", "swim"};

constexpr uint64_t TraceOps = 10'000'000;
constexpr uint64_t SampledWarmup = 50'000;
constexpr uint64_t SampledInterval = 50'000;
constexpr uint32_t SampledClusters = 12;
/** Times the sampled workload records its traces; setup_s is their
 *  median. */
constexpr int SetupRepeats = 3;

/** Presets of the Fig. 9 matrix, INT suite then FP suite. */
std::vector<std::string>
fig9Presets()
{
    std::vector<std::string> v = sim::intSuite();
    for (const auto &n : sim::fpSuite())
        v.push_back(n);
    return v;
}

class Bench
{
  public:
    explicit Bench(const Args &a) : args(a) {}

    int run();

  private:
    bool sampled() const { return args.workload == "sampled-longtrace"; }
    mem::MemConfig memConfig() const
    {
        return args.workload == "fig9-perfect-l2"
                   ? mem::MemConfig::byName("l2-11")
                   : mem::MemConfig::byName("mem-400");
    }
    std::string tracePath(const std::string &preset) const
    {
        return args.dir + "/" + preset + ".ktrc";
    }

    uint64_t fig9Pass();
    uint64_t recordTraces();
    void sampledPass();
    void fig9Probes();
    void sampledProbes();

    Args args;
    Tracer tr;
    uint64_t nextJob = 1;
};

/** One pass of the 5-machine x 26-preset matrix; returns setup ns. */
uint64_t
Bench::fig9Pass()
{
    const mem::MemConfig mem = memConfig();
    const sim::RunConfig rc;
    uint64_t setup = 0;
    // Preset-major, machines interleaved inside each preset, so a
    // slow host regime hits every machine kind alike.
    for (const auto &preset : fig9Presets()) {
        for (const auto &mname : Fig9Machines) {
            const sim::MachineConfig mc = sim::MachineConfig::byName(mname);
            const uint64_t job = nextJob++;
            Tracer::Span js(tr, "job", job);

            Tracer::Span ctor(tr, "sim.ctor", job, js.id());
            wload::WorkloadPtr wl =
                wload::makeWorkload(profileFor(preset, args.seed));
            auto session =
                std::make_unique<sim::Session>(mc, *wl, mem, rc);
            const uint64_t ctor_ns = ctor.stop();
            setup += ctor_ns;

            Tracer::Span work(tr, "sim.work", job, js.id());
            {
                Tracer::Span s(tr, "sim.warmup", job, work.id());
                session->warmup();
            }
            {
                Tracer::Span s(tr, "sim.measure", job, work.id());
                session->run();
            }
            stats::Snapshot snap;
            {
                Tracer::Span s(tr, "stats.snapshot", job, work.id());
                snap = session->snapshot();
            }
            sim::RunResult res;
            {
                Tracer::Span s(tr, "sim.finish", job, work.id());
                res = session->finish();
            }
            std::string row;
            {
                Tracer::Span s(tr, "stats.row", job, work.id());
                row = sim::runResultJson(res);
            }
            const uint64_t work_ns = work.stop();

            tr.emit("job", job,
                    stats::JsonRowBuilder()
                        .field("pass", tr.pass)
                        .field("mode", "exact")
                        .field("preset", preset)
                        .field("suite", wl->isFp() ? "fp" : "int")
                        .field("machine", mname)
                        .field("kind", kindName(mc.kind))
                        .field("setup_ns", ctor_ns)
                        .field("run_ns", work_ns)
                        .field("insts",
                               rc.warmupInsts +
                                   uint64_t(snap.value("committed")))
                        .field("measure_insts", rc.measureInsts)
                        .field("width", commitWidth(mc))
                        .field("aborted", uint64_t(res.aborted)));
            tr.emit("row", job, row);
            if (tr.on)
                tr.emit("stats", job, statsJson(snap));
        }
    }
    return setup;
}

/** Record the two long traces; returns the ns it took. */
uint64_t
Bench::recordTraces()
{
    uint64_t ns = 0;
    for (const auto &preset : SampledPresets) {
        const uint64_t job = nextJob++;
        Tracer::Span rec(tr, "trace.record", job);
        wload::WorkloadPtr wl =
            wload::makeWorkload(profileFor(preset, args.seed));
        trace::CapturingWorkload cap(*wl, tracePath(preset), args.seed);
        std::vector<isa::MicroOp> buf(256);
        for (uint64_t left = TraceOps; left;)
            left -= cap.nextBlock(buf.data(),
                                  size_t(std::min<uint64_t>(left, 256)));
        cap.finish();
        ns += rec.stop();
    }
    return ns;
}

/** Run every machine sampled over each recorded trace. */
void
Bench::sampledPass()
{
    const mem::MemConfig mem = memConfig();
    sim::RunConfig rc;
    rc.warmupInsts = SampledWarmup;
    rc.measureInsts = TraceOps - SampledWarmup;
    rc.intervalInsts = SampledInterval;
    rc.numClusters = SampledClusters;

    for (const auto &preset : SampledPresets) {
        for (const auto &mname : SampledMachines) {
            const sim::MachineConfig mc = sim::MachineConfig::byName(mname);
            const uint64_t job = nextJob++;
            Tracer::Span js(tr, "job", job);
            Tracer::Span work(tr, "sample.run", job, js.id());
            obs::Profiler prof;
            sample::SampledResult sr = [&] {
                trace::TraceWorkload tw(tracePath(preset),
                                        trace::ReadMode::Mmap);
                return sample::runSampled(mc, tw, mem, rc, &prof);
            }();
            std::string row;
            {
                Tracer::Span s(tr, "stats.row", job, work.id());
                row = sim::runResultJson(sr.result);
            }
            const uint64_t work_ns = work.stop();

            double ipc_sigma = -1.0;
            bool finite = true;
            for (const auto &e : sr.errorBars) {
                finite = finite && std::isfinite(e.relSigma);
                if (e.name == "ipc")
                    ipc_sigma = e.relSigma;
            }

            tr.emit("job", job,
                    stats::JsonRowBuilder()
                        .field("pass", tr.pass)
                        .field("mode", "sampled")
                        .field("preset", preset)
                        .field("suite", wload::profileByName(preset).fp
                                            ? "fp"
                                            : "int")
                        .field("machine", mname)
                        .field("kind", kindName(mc.kind))
                        .field("setup_ns", uint64_t(0))
                        .field("run_ns", work_ns)
                        .field("insts", TraceOps)
                        .field("represented", TraceOps)
                        .field("width", commitWidth(mc))
                        .field("detail", sr.detailInsts)
                        .field("warm", sr.warmInsts)
                        .field("skipped", sr.skippedInsts)
                        .field("ipc_sigma", ipc_sigma)
                        .field("sigmas_finite", uint64_t(finite))
                        .field("aborted", uint64_t(sr.result.aborted)));
            tr.emit("row", job, row);
            stats::JsonRowBuilder phases;
            for (const auto &p : prof.phases())
                phases.field(p.name, p.ns);
            tr.emit("phases", job, phases);
            if (tr.on)
                tr.emit("stats", job, statsJson(sr.result.snapshot));
        }
    }
}

/**
 * Standalone layer probes for the Fig. 9 workloads: per preset,
 * generate the run's op stream, feed its data addresses to a fresh
 * hierarchy and its branches to a fresh predictor.
 */
void
Bench::fig9Probes()
{
    const sim::RunConfig rc;
    const size_t n = size_t(rc.warmupInsts + rc.measureInsts);
    std::vector<isa::MicroOp> ops(n);
    uint64_t mem_ops = 0, branches = 0;
    for (const auto &preset : fig9Presets()) {
        const uint64_t job = nextJob++;
        Tracer::Span js(tr, "probe", job);
        wload::WorkloadPtr wl =
            wload::makeWorkload(profileFor(preset, args.seed));
        {
            Tracer::Span s(tr, "wload.gen", job, js.id());
            for (size_t i = 0; i < n;)
                i += wl->nextBlock(ops.data() + i,
                                   std::min<size_t>(256, n - i));
        }
        mem::MemoryHierarchy h(memConfig());
        {
            Tracer::Span s(tr, "mem.prewarm", job, js.id());
            for (const auto &r : wl->regions())
                h.prewarm(r.base, r.bytes);
        }
        {
            Tracer::Span s(tr, "mem.access", job, js.id());
            for (size_t i = 0; i < n; ++i)
                if (ops[i].isMem())
                    h.access(ops[i].effAddr, ops[i].isStore(), i);
        }
        auto bp = pred::makePredictor(pred::BpKind::Perceptron);
        {
            Tracer::Span s(tr, "pred.lookup_train", job, js.id());
            uint64_t hist = 0;
            for (size_t i = 0; i < n; ++i) {
                if (!ops[i].isBranch())
                    continue;
                const bool taken = ops[i].taken;
                bp->lookup(ops[i].pc, hist);
                bp->train(ops[i].pc, hist, taken);
                hist = (hist << 1) | uint64_t(taken);
            }
        }
        for (size_t i = 0; i < n; ++i) {
            mem_ops += ops[i].isMem();
            branches += ops[i].isBranch();
        }
    }
    tr.emit("probe", 0,
            stats::JsonRowBuilder()
                .field("gen_ops", uint64_t(n * fig9Presets().size()))
                .field("mem_ops", mem_ops)
                .field("branches", branches));
}

/**
 * Standalone layer probes for the sampled workload: write, read,
 * skip and functionally warm the recorded traces.
 */
void
Bench::sampledProbes()
{
    constexpr size_t WriteOps = 2'000'000;
    std::vector<isa::MicroOp> ops(WriteOps);
    uint64_t read_ops = 0, skip_ops = 0, warm_ops = 0, bytes = 0;
    for (const auto &preset : SampledPresets) {
        const std::string path = tracePath(preset);
        bytes += std::filesystem::file_size(path);
        const uint64_t job = nextJob++;
        Tracer::Span js(tr, "probe", job);

        wload::WorkloadPtr wl =
            wload::makeWorkload(profileFor(preset, args.seed));
        {
            Tracer::Span s(tr, "wload.gen", job, js.id());
            for (size_t i = 0; i < WriteOps;)
                i += wl->nextBlock(ops.data() + i,
                                   std::min<size_t>(256, WriteOps - i));
        }
        {
            trace::TraceMeta meta;
            meta.name = wl->name();
            meta.fp = wl->isFp();
            meta.seed = args.seed;
            meta.regions = wl->regions();
            Tracer::Span s(tr, "trace.write", job, js.id());
            trace::Writer w(args.dir + "/probe.ktrc", meta);
            for (const auto &op : ops)
                w.append(op);
            w.finish();
        }
        std::filesystem::remove(args.dir + "/probe.ktrc");

        std::vector<uint64_t> addrs;
        {
            trace::TraceWorkload tw(path, trace::ReadMode::Mmap);
            std::vector<isa::MicroOp> buf(256);
            Tracer::Span s(tr, "trace.read", job, js.id());
            for (uint64_t left = tw.traceOps(); left;) {
                size_t got = tw.nextBlock(
                    buf.data(), size_t(std::min<uint64_t>(left, 256)));
                left -= got;
                read_ops += got;
            }
        }
        {
            trace::TraceWorkload tw(path, trace::ReadMode::Mmap);
            std::vector<isa::MicroOp> buf(256);
            for (uint64_t left = tw.traceOps(); left;) {
                size_t got = tw.nextBlock(
                    buf.data(), size_t(std::min<uint64_t>(left, 256)));
                left -= got;
                for (size_t i = 0; i < got; ++i)
                    if (buf[i].isMem())
                        addrs.push_back(buf[i].effAddr);
            }
        }
        {
            trace::Reader r(path, trace::ReadMode::Mmap);
            Tracer::Span s(tr, "trace.skip", job, js.id());
            skip_ops += r.skipOps(r.opCount());
        }
        {
            mem::MemoryHierarchy h(memConfig());
            Tracer::Span s(tr, "mem.warm_access", job, js.id());
            for (uint64_t a : addrs)
                h.warmAccess(a);
            warm_ops += addrs.size();
        }
    }
    tr.emit("probe", 0,
            stats::JsonRowBuilder()
                .field("gen_ops", uint64_t(WriteOps * SampledPresets.size()))
                .field("write_ops",
                       uint64_t(WriteOps * SampledPresets.size()))
                .field("trace_ops", uint64_t(TraceOps * SampledPresets.size()))
                .field("trace_bytes", bytes)
                .field("read_ops", read_ops)
                .field("skip_ops", skip_ops)
                .field("warm_ops", warm_ops));
}

int
Bench::run()
{
    // The sampled workload's setup: record its traces, several times
    // so that setup_s is a median. The last recording is the one the
    // passes and probes read.
    if (sampled())
        for (int i = 0; i < SetupRepeats; ++i)
            tr.emit("setup", 0,
                    stats::JsonRowBuilder().field("ns", recordTraces()));

    const uint64_t t0 = nowNs();
    const uint64_t budget = uint64_t(args.seconds * 1e9);
    uint64_t plain = 0, traced = 0, pass_ns = 0;
    // Whole passes while the next one, as long as the mean pass so
    // far, still ends inside the budget; a traced run alternates
    // untraced and traced passes and needs at least one of each.
    auto anotherFits = [&] {
        return nowNs() - t0 + pass_ns / (plain + traced) <= budget;
    };
    while (plain == 0 || (args.trace && traced == 0) || anotherFits()) {
        tr.on = args.trace && plain > traced;
        tr.pass = plain + traced;
        const uint64_t start = nowNs();
        uint64_t setup = 0;
        if (sampled())
            sampledPass();
        else
            setup = fig9Pass();
        const uint64_t end = nowNs();
        tr.emit("pass", 0,
                stats::JsonRowBuilder()
                    .field("pass", tr.pass)
                    .field("traced", uint64_t(tr.on))
                    .field("wall_ns", end - start)
                    .field("setup_ns", setup));
        pass_ns += end - start;
        ++(tr.on ? traced : plain);
    }

    if (args.trace) {
        tr.on = true;
        tr.pass = plain + traced;
        if (sampled())
            sampledProbes();
        else
            fig9Probes();
    }
    for (const auto &p : SampledPresets)
        std::filesystem::remove(tracePath(p));

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    tr.emit("end", 0,
            stats::JsonRowBuilder().field("peak_rss_kb",
                                          uint64_t(ru.ru_maxrss)));

    for (const auto &line : tr.records)
        std::fputs((line + "\n").c_str(), stdout);
    return std::fflush(stdout) == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: kilobench --workload fig9-memwall|"
                 "fig9-perfect-l2|sampled-longtrace\n"
                 "                 [--seed S] [--seconds T] "
                 "[--trace 0|1] [--dir D]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--dir")
            a.dir = v;
        else
            return usage();
    }
    if (a.workload != "fig9-memwall" && a.workload != "fig9-perfect-l2" &&
        a.workload != "sampled-longtrace")
        return usage();
    if (!(a.seconds > 0.0 && a.seconds < 3600.0))
        return usage();
    return Bench(a).run();
}
