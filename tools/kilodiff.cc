/**
 * @file
 * Determinism audit driver: record, compare and bisect KILOAUD
 * state-hash streams (src/obs/audit.hh, src/obs_audit/bisect.hh).
 *
 *     kilodiff record  <out.kaud> --machine M --workload W --mem MEM
 *                      [run options]
 *     kilodiff compare <a.kaud> <b.kaud>
 *     kilodiff verify  <a.kaud> --machine M --workload W --mem MEM
 *                      [run options]        # against a live re-run
 *     kilodiff bisect  <a.kaud> <b.kaud> --machine M --workload W
 *                      --mem MEM [run options] [--dump PREFIX]
 *                      [--margin N]
 *
 * Run options: --warmup N, --measure N, --interval N (audit cadence,
 * default measure/8), and the test-only divergence seed
 * --flip-cycle C / --flip-mask M (bisect arms them on run B only: run
 * A is the reference, B the suspect). A recorded trace replays with
 * --workload trace:PATH.
 *
 * Exit status: 0 identical, 1 divergence found (and, for bisect,
 * localized), 2 usage or any error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/obs/audit.hh"
#include "src/obs_audit/bisect.hh"

using namespace kilo;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s record  <out.kaud> --machine M --workload W "
        "--mem MEM [opts]\n"
        "       %s compare <a.kaud> <b.kaud>\n"
        "       %s verify  <a.kaud> --machine M --workload W "
        "--mem MEM [opts]\n"
        "       %s bisect  <a.kaud> <b.kaud> --machine M "
        "--workload W --mem MEM [opts]\n"
        "opts: --warmup N --measure N --interval N\n"
        "      --flip-cycle C --flip-mask M   (divergence seed; "
        "bisect applies to run B)\n"
        "      --dump PREFIX --margin N       (bisect only)\n",
        argv0, argv0, argv0, argv0);
    return 2;
}

struct Options
{
    obs_audit::RunSpec spec;
    std::string dumpPrefix;
    uint64_t margin = 200;
    bool ok = true;
};

Options
parseRunOptions(int argc, char **argv, int first)
{
    Options o;
    o.spec.rc.auditIntervalInsts = 0; // defaulted after parsing
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n",
                             arg);
                o.ok = false;
                return "0";
            }
            return argv[++i];
        };
        if (!std::strcmp(arg, "--machine")) {
            o.spec.machine = value();
        } else if (!std::strcmp(arg, "--workload")) {
            o.spec.workload = value();
        } else if (!std::strcmp(arg, "--mem")) {
            o.spec.mem = value();
        } else if (!std::strcmp(arg, "--warmup")) {
            o.spec.rc.warmupInsts = std::strtoull(value(), nullptr, 0);
        } else if (!std::strcmp(arg, "--measure")) {
            o.spec.rc.measureInsts =
                std::strtoull(value(), nullptr, 0);
        } else if (!std::strcmp(arg, "--interval")) {
            o.spec.rc.auditIntervalInsts =
                std::strtoull(value(), nullptr, 0);
        } else if (!std::strcmp(arg, "--flip-cycle")) {
            o.spec.flipCycle = std::strtoull(value(), nullptr, 0);
        } else if (!std::strcmp(arg, "--flip-mask")) {
            o.spec.flipMask = std::strtoull(value(), nullptr, 0);
        } else if (!std::strcmp(arg, "--dump")) {
            o.dumpPrefix = value();
        } else if (!std::strcmp(arg, "--margin")) {
            o.margin = std::strtoull(value(), nullptr, 0);
        } else {
            std::fprintf(stderr, "error: unknown option %s\n", arg);
            o.ok = false;
        }
    }
    if (o.spec.machine.empty() || o.spec.workload.empty() ||
        o.spec.mem.empty()) {
        std::fprintf(stderr,
                     "error: --machine, --workload and --mem are "
                     "required\n");
        o.ok = false;
    }
    if (!o.spec.rc.auditIntervalInsts) {
        uint64_t dflt = o.spec.rc.measureInsts / 8;
        o.spec.rc.auditIntervalInsts = dflt ? dflt : 1;
    }
    return o;
}

void
printDivergence(const obs::AuditStream &a, const obs::AuditStream &b,
                long k)
{
    if (size_t(k) < a.records.size() &&
        size_t(k) < b.records.size()) {
        const obs::AuditRecord &ra = a.records[size_t(k)];
        const obs::AuditRecord &rb = b.records[size_t(k)];
        std::printf("first divergent record %ld\n", k);
        std::printf("  a: insts %llu cycle %llu state %016llx "
                    "rolling %016llx\n",
                    (unsigned long long)ra.insts,
                    (unsigned long long)ra.cycle,
                    (unsigned long long)ra.state,
                    (unsigned long long)ra.rolling);
        std::printf("  b: insts %llu cycle %llu state %016llx "
                    "rolling %016llx\n",
                    (unsigned long long)rb.insts,
                    (unsigned long long)rb.cycle,
                    (unsigned long long)rb.state,
                    (unsigned long long)rb.rolling);
    } else {
        std::printf("streams agree on all %ld shared records but "
                    "differ in length (%zu vs %zu)\n",
                    k, a.records.size(), b.records.size());
    }
}

int
cmdRecord(const char *out, const Options &o)
{
    obs::AuditStream stream = obs_audit::recordRun(o.spec);
    obs::writeAuditFile(out, stream);
    std::printf("wrote %s: %zu records, interval %llu insts, "
                "rolling %016llx\n",
                out, stream.records.size(),
                (unsigned long long)stream.intervalInsts,
                (unsigned long long)stream.finalRolling());
    return 0;
}

int
cmdCompare(const char *pa, const char *pb)
{
    obs::AuditStream a = obs::readAuditFile(pa);
    obs::AuditStream b = obs::readAuditFile(pb);
    long k = obs::firstDivergence(a, b);
    if (k < 0) {
        std::printf("identical: %zu records, rolling %016llx\n",
                    a.records.size(),
                    (unsigned long long)a.finalRolling());
        return 0;
    }
    printDivergence(a, b, k);
    return 1;
}

int
cmdVerify(const char *pa, const Options &o)
{
    obs::AuditStream a = obs::readAuditFile(pa);
    obs_audit::RunSpec spec = o.spec;
    spec.rc.auditIntervalInsts = a.intervalInsts;
    obs::AuditStream live = obs_audit::recordRun(spec);
    long k = obs::firstDivergence(a, live);
    if (k < 0) {
        std::printf("verified: live re-run matches all %zu records "
                    "(rolling %016llx)\n",
                    a.records.size(),
                    (unsigned long long)a.finalRolling());
        return 0;
    }
    std::printf("live re-run diverges from %s\n", pa);
    printDivergence(a, live, k);
    return 1;
}

int
cmdBisect(const char *pa, const char *pb, const Options &o)
{
    obs::AuditStream a = obs::readAuditFile(pa);
    obs::AuditStream b = obs::readAuditFile(pb);

    obs_audit::RunSpec specA = o.spec;
    specA.rc.auditIntervalInsts = a.intervalInsts;
    // The divergence seed belongs to the suspect run only; A is the
    // reference the suspect is measured against.
    specA.flipCycle = 0;
    obs_audit::RunSpec specB = o.spec;
    specB.rc.auditIntervalInsts = b.intervalInsts;

    obs_audit::BisectResult res = obs_audit::bisect(
        specA, specB, a, b, o.dumpPrefix, o.margin);
    if (!res.diverged) {
        std::printf("identical: %zu records, rolling %016llx\n",
                    a.records.size(),
                    (unsigned long long)a.finalRolling());
        return 0;
    }
    std::printf("first divergent record %ld\n", res.record);
    std::printf("first divergent cycle %llu\n",
                (unsigned long long)res.firstDivergentCycle);
    std::printf("  state after: a %016llx  b %016llx\n",
                (unsigned long long)res.digestA,
                (unsigned long long)res.digestB);
    if (!res.konataA.empty()) {
        std::printf("dumped %s %s\n", res.konataA.c_str(),
                    res.chromeA.c_str());
        std::printf("dumped %s %s\n", res.konataB.c_str(),
                    res.chromeB.c_str());
    }
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    const char *cmd = argv[1];

    try {
        if (!std::strcmp(cmd, "record")) {
            Options o = parseRunOptions(argc, argv, 3);
            if (!o.ok)
                return usage(argv[0]);
            return cmdRecord(argv[2], o);
        }
        if (!std::strcmp(cmd, "compare")) {
            if (argc != 4)
                return usage(argv[0]);
            return cmdCompare(argv[2], argv[3]);
        }
        if (!std::strcmp(cmd, "verify")) {
            Options o = parseRunOptions(argc, argv, 3);
            if (!o.ok)
                return usage(argv[0]);
            return cmdVerify(argv[2], o);
        }
        if (!std::strcmp(cmd, "bisect")) {
            if (argc < 4)
                return usage(argv[0]);
            Options o = parseRunOptions(argc, argv, 4);
            if (!o.ok)
                return usage(argv[0]);
            return cmdBisect(argv[2], argv[3], o);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return usage(argv[0]);
}
