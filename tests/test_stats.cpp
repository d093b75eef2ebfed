/**
 * @file
 * Tests of the self-describing statistics layer: registration,
 * collisions, snapshots, registry-driven reset (histogram config
 * preservation) and the generic JSONL emission.
 */

#include <gtest/gtest.h>

#include "src/sim/simulator.hh"
#include "src/stats/json.hh"
#include "src/stats/registry.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;
using namespace kilo::stats;

TEST(Registry, CounterGaugeHistogramSnapshot)
{
    Registry reg;
    uint64_t hits = 0;
    double ratio = 0.25;
    Histogram hist(10, 8);

    reg.counter("hits", "cache hits", &hits, Row::Yes);
    reg.gauge("hit_ratio", "hits per access", [&] { return ratio; });
    reg.gaugeInt("hist_max", "largest sample",
                 [&] { return hist.maxSample(); });
    reg.histogram("latency", "latency distribution", &hist);
    ASSERT_EQ(reg.size(), 4u);

    hits = 42;
    hist.sample(7);
    hist.sample(31);

    Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 4u);

    const auto *h = snap.find("hits");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->kind, Kind::Counter);
    EXPECT_TRUE(h->inRow);
    EXPECT_FALSE(h->value.real);
    EXPECT_EQ(h->value.u, 42u);

    const auto *r = snap.find("hit_ratio");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->kind, Kind::Gauge);
    EXPECT_FALSE(r->inRow);
    EXPECT_TRUE(r->value.real);
    EXPECT_DOUBLE_EQ(r->value.d, 0.25);

    EXPECT_EQ(snap.value("hist_max"), 31.0);
    EXPECT_EQ(snap.value("latency"), 2.0); // sample count
    EXPECT_EQ(snap.find("nonexistent"), nullptr);
    EXPECT_EQ(snap.value("nonexistent"), 0.0);
}

TEST(Registry, SnapshotPreservesRegistrationOrder)
{
    Registry reg;
    uint64_t a = 1, b = 2, c = 3;
    reg.counter("zeta", "third", &c);
    reg.counter("alpha", "first", &a);
    reg.counter("mid", "second", &b);

    Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].name, "zeta");
    EXPECT_EQ(snap.entries[1].name, "alpha");
    EXPECT_EQ(snap.entries[2].name, "mid");
}

TEST(RegistryDeathTest, DuplicateNamePanics)
{
    Registry reg;
    uint64_t a = 0, b = 0;
    reg.counter("cycles", "first registration", &a);
    EXPECT_DEATH(reg.counter("cycles", "second registration", &b),
                 "registered twice");
}

TEST(RegistryDeathTest, NonSnakeCaseNamePanics)
{
    // The naming scheme (src/stats/DESIGN.md) is checked where every
    // name is registered, computed names included.
    Registry reg;
    uint64_t a = 0;
    EXPECT_DEATH(reg.counter("commitInsts", "camelCase", &a),
                 "not lower_snake_case");
    EXPECT_DEATH(reg.gauge("ipc_", "trailing underscore",
                           [] { return 0.0; }),
                 "not lower_snake_case");
}

TEST(Registry, ResetZeroesCountersAndPreservesHistogramConfig)
{
    Registry reg;
    uint64_t count = 99;
    Histogram hist(25, 80); // the issueLatency geometry
    reg.counter("count", "a counter", &count);
    reg.histogram("lat", "a histogram", &hist);
    // Derived gauges must survive reset untouched (they recompute).
    uint64_t basis = 7;
    reg.gaugeInt("derived", "reads an unregistered basis",
                 [&] { return basis; });

    hist.sample(10);
    hist.sample(1000);
    reg.reset();

    EXPECT_EQ(count, 0u);
    EXPECT_EQ(hist.samples(), 0u);
    EXPECT_EQ(basis, 7u);
    // The satellite fix this pins: reset works *in place*, so bucket
    // configuration is never silently reconstructed.
    EXPECT_EQ(hist.bucketWidth(), 25u);
    EXPECT_EQ(hist.numBuckets(), 80u);
    EXPECT_EQ(reg.snapshot().value("derived"), 7.0);
}

TEST(JsonRow, GenericEmissionMatchesHandWrittenFormatting)
{
    Registry reg;
    uint64_t cycles = 1234;
    reg.gauge("ratio", "a real", [] { return 0.5; }, Row::Yes);
    reg.counter("cycles", "an int", &cycles, Row::Yes);
    reg.counter("hidden", "not in the row", &cycles);
    reg.gauge("whole", "a double that prints like an int",
              [] { return 1.0; }, Row::Yes);

    JsonRowBuilder row;
    row.field("machine", std::string_view("M"));
    row.rowStats(reg.snapshot());
    // Doubles use round-trip formatting (0.5 and 1 print exactly as
    // the old precision(17) ostream did); non-row entries are
    // excluded; order follows registration.
    EXPECT_EQ(row.str(),
              "{\"machine\":\"M\",\"ratio\":0.5,\"cycles\":1234,"
              "\"whole\":1}");
}

TEST(JsonRow, RoundTripDoublePrecision)
{
    double v = 0.051481664142399554; // a real IPC value
    JsonRowBuilder row;
    row.field("ipc", v);
    std::string text = row.str();
    double parsed =
        std::strtod(text.c_str() + text.find(':') + 1, nullptr);
    EXPECT_EQ(parsed, v);
}

TEST(CoreRegistry, EveryMachineKindSelfDescribes)
{
    using sim::MachineConfig;
    auto wl = wload::makeWorkload("gzip");

    auto check = [&](const MachineConfig &cfg,
                     const char *kind_stat, bool expect) {
        auto core = sim::Simulator::makeCore(
            cfg, *wl, mem::MemConfig::mem400());
        const auto &defs = core->statsRegistry().defs();
        // The stable row schema head and the mem block tail.
        ASSERT_GE(defs.size(), 15u);
        EXPECT_EQ(defs[0].name, "ipc");
        EXPECT_EQ(defs[1].name, "cycles");
        bool found = false;
        for (const auto &d : defs) {
            EXPECT_FALSE(d.name.empty());
            EXPECT_FALSE(d.description.empty());
            if (d.name == kind_stat)
                found = true;
        }
        EXPECT_EQ(found, expect) << cfg.name << " / " << kind_stat;
    };

    // Decoupled structures register only on the machines that own
    // them, so the schema is genuinely per-kind.
    check(MachineConfig::r10_64(), "llib_inserted_int", false);
    check(MachineConfig::r10_64(), "sliq_occupancy", false);
    check(MachineConfig::dkip2048(), "llib_inserted_int", true);
    check(MachineConfig::dkip2048(), "sliq_occupancy", false);
    check(MachineConfig::kilo1024(), "sliq_occupancy", true);
    check(MachineConfig::kilo1024(), "llib_inserted_int", false);
}

TEST(CoreRegistry, RowSchemaIdenticalAcrossMachineKinds)
{
    using sim::MachineConfig;
    auto wl = wload::makeWorkload("gzip");
    std::vector<std::string> row_names;
    for (const auto &cfg :
         {MachineConfig::r10_64(), MachineConfig::kilo1024(),
          MachineConfig::dkip2048()}) {
        auto core = sim::Simulator::makeCore(
            cfg, *wl, mem::MemConfig::mem400());
        std::vector<std::string> names;
        for (const auto &d : core->statsRegistry().defs()) {
            if (d.inRow)
                names.push_back(d.name);
        }
        if (row_names.empty())
            row_names = names;
        else
            EXPECT_EQ(names, row_names) << cfg.name;
    }
    // The frozen JSONL schema (src/stats/DESIGN.md).
    const std::vector<std::string> expected{
        "ipc", "cycles", "committed", "branches", "mispredict_rate",
        "mp_fraction", "mem_accesses", "l2_misses", "l2_miss_ratio",
        "mem_fills", "mshr_merges", "mshr_peak", "mshr_set_p50",
        "mshr_set_p99", "mshr_set_max", "stall_frontend",
        "stall_empty", "stall_mem", "stall_exec", "stall_depend",
        "stall_issue", "stall_mshr", "stall_decoupled"};
    EXPECT_EQ(row_names, expected);
}
