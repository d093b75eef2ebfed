#include "src/obs_audit/bisect.hh"

#include <algorithm>
#include <fstream>
#include <memory>

#include "src/mem/hierarchy.hh"
#include "src/obs/export.hh"
#include "src/obs/timeline.hh"
#include "src/sim/session.hh"

namespace kilo::obs_audit
{

namespace
{

/** Event-ring capacity of a divergence-window timeline dump. */
constexpr size_t DumpTimelineCapacity = size_t(1) << 16;

std::unique_ptr<sim::Session>
makeSession(const RunSpec &spec)
{
    if (!spec.rc.auditIntervalInsts)
        throw obs::AuditError("bisection needs an auditing run "
                              "(RunConfig::auditIntervalInsts == 0)");
    auto s = std::make_unique<sim::Session>(
        sim::MachineConfig::byName(spec.machine), spec.workload,
        mem::MemConfig::byName(spec.mem), spec.rc);
    if (spec.flipCycle)
        s->core().setDebugFlip(spec.flipCycle, spec.flipMask);
    return s;
}

/** Advance @p s to the first pause at or past absolute cycle @p x. */
void
stepTo(sim::Session &s, uint64_t x)
{
    while (s.core().cycle() < x && !s.finished())
        s.step(x - s.core().cycle());
}

/**
 * Replay @p spec to the pause point of record @p upto (exclusive;
 * 0 replays just the warm-up) and verify the live audit prefix
 * matches @p recorded — the proof that the stream being bisected
 * really came from this spec.
 */
std::unique_ptr<sim::Session>
replayTo(const RunSpec &spec, const obs::AuditStream &recorded,
         size_t upto, const char *which)
{
    auto s = makeSession(spec);
    s->warmup();
    if (upto) {
        uint64_t target = recorded.records[upto - 1].insts;
        s->runFor(target - s->measuredCommitted());
    }
    const auto &live = s->auditRecords();
    if (live.size() < upto)
        throw obs::AuditError(
            std::string("live replay of run ") + which +
            " produced fewer audit records than the input stream — "
            "the stream was not recorded from this configuration");
    for (size_t i = 0; i < upto; ++i) {
        const obs::AuditRecord &a = live[i];
        const obs::AuditRecord &b = recorded.records[i];
        if (a.insts != b.insts || a.cycle != b.cycle ||
            a.state != b.state || a.rolling != b.rolling)
            throw obs::AuditError(
                std::string("live replay of run ") + which +
                " diverges from its input stream at record " +
                std::to_string(i) +
                " — the stream was not recorded from this "
                "configuration (or the host is non-deterministic)");
    }
    return s;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f.write(text.data(), std::streamsize(text.size()));
    if (!f.good())
        throw obs::AuditError("dump write failed: " + path);
}

} // anonymous namespace

obs::AuditStream
recordRun(const RunSpec &spec)
{
    auto s = makeSession(spec);
    s->warmup();
    s->run();
    obs::AuditStream stream;
    stream.intervalInsts = spec.rc.auditIntervalInsts;
    stream.records = s->auditRecords();
    return stream;
}

BisectResult
bisect(const RunSpec &a, const RunSpec &b, const obs::AuditStream &sa,
       const obs::AuditStream &sb, const std::string &dump_prefix,
       uint64_t margin_cycles)
{
    BisectResult res;
    long k = obs::firstDivergence(sa, sb);
    if (k < 0)
        return res; // identical streams: nothing to narrow
    res.diverged = true;
    res.record = k;
    if (size_t(k) >= sa.records.size() ||
        size_t(k) >= sb.records.size())
        throw obs::AuditError(
            "streams diverge by length only (record " +
            std::to_string(k) +
            " exists in one stream but not the other); cycle "
            "bisection needs the divergent record in both");

    // Phase 2: replay both runs to the last agreeing boundary. The
    // replay target is exact — it is the recorded pause point of an
    // identical tick sequence — and the prefix check inside
    // replayTo() proves it.
    auto sessA = replayTo(a, sa, size_t(k), "A");
    auto sessB = replayTo(b, sb, size_t(k), "B");
    ckpt::Checkpoint ckA = sessA->checkpoint();
    ckpt::Checkpoint ckB = sessB->checkpoint();

    uint64_t lo = std::max(sessA->core().cycle(),
                           sessB->core().cycle());
    if (sessA->core().cycle() != sessB->core().cycle() ||
        sessA->stateDigest() != sessB->stateDigest())
        throw obs::AuditError(
            "state already differs at the last agreeing audit "
            "boundary (record " + std::to_string(k - 1) +
            ") — divergence precedes the bisection window");
    uint64_t hi = std::max(sa.records[size_t(k)].cycle,
                           sb.records[size_t(k)].cycle) + 1;

    // P(x): do the two runs still agree after pausing at cycle x?
    // Restore-from-checkpoint each probe so earlier probes cannot
    // contaminate later ones.
    auto differsAt = [&](uint64_t x, uint64_t *da, uint64_t *db) {
        sessA->restore(ckA);
        sessB->restore(ckB);
        stepTo(*sessA, x);
        stepTo(*sessB, x);
        uint64_t ha = sessA->stateDigest();
        uint64_t hb = sessB->stateDigest();
        if (da)
            *da = ha;
        if (db)
            *db = hb;
        return ha != hb ||
               sessA->core().cycle() != sessB->core().cycle();
    };

    if (differsAt(lo, nullptr, nullptr))
        throw obs::AuditError(
            "bisection invariant broken: runs disagree at the "
            "agreeing boundary cycle after restore");
    if (!differsAt(hi, nullptr, nullptr))
        throw obs::AuditError(
            "bisection invariant broken: runs agree at the divergent "
            "record's cycle — the divergence is not persistent "
            "within the interval (transient or hash collision)");

    // Invariant: agree at lo, disagree at hi. Narrow to adjacent.
    while (hi - lo > 1) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (differsAt(mid, nullptr, nullptr))
            hi = mid;
        else
            lo = mid;
    }
    // States agree when paused at cycle lo == hi-1 and differ when
    // paused at hi: executing cycle hi-1 introduced the divergence.
    res.firstDivergentCycle = hi - 1;
    differsAt(hi, &res.digestA, &res.digestB);

    if (!dump_prefix.empty()) {
        auto dump = [&](sim::Session &s, const ckpt::Checkpoint &ck,
                        const char *suffix, std::string *konata,
                        std::string *chrome) {
            s.restore(ck);
            // Attach at the restore point, not at the divergent
            // cycle: the exporters can only render instructions
            // whose fetch they saw, and everything in flight near
            // the divergence was fetched earlier in the interval.
            obs::Timeline tl(DumpTimelineCapacity);
            s.core().attachTimeline(&tl);
            stepTo(s, res.firstDivergentCycle + margin_cycles);
            s.core().attachTimeline(nullptr);
            *konata = dump_prefix + "_" + suffix + ".konata";
            *chrome = dump_prefix + "_" + suffix + ".json";
            writeText(*konata, obs::konataText(tl));
            writeText(*chrome, obs::chromeTraceJson(tl));
        };
        dump(*sessA, ckA, "a", &res.konataA, &res.chromeA);
        dump(*sessB, ckB, "b", &res.konataB, &res.chromeB);
    }
    return res;
}

} // namespace kilo::obs_audit
