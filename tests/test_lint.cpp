/**
 * @file
 * Tests of the kilolint static-analysis pass: per-rule good/bad
 * fixtures and suppression semantics on in-memory buffers, the
 * semantic tier (layering, include cycles, dead stats) over
 * multi-file fixtures, the report format, and — the point of the
 * whole exercise — a self-scan asserting the live source tree under
 * KILO_SOURCE_DIR, tests included, lints clean against its own layer
 * spec. Every fixture runs through the one Analysis pipeline the CLI
 * uses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/linter.hh"

using namespace kilo::lint;

namespace
{

/** Run the full two-tier Analysis over in-memory buffers. */
LintReport
analyzeTexts(
    const std::vector<std::pair<std::string, std::string>> &files,
    const std::string &layersText = "")
{
    RuleRegistry rules = RuleRegistry::builtin();
    LayerSpec layers;
    if (!layersText.empty())
        layers = LayerSpec::parse("layers", layersText);
    Analysis analysis(rules, std::move(layers));
    for (const auto &[path, content] : files)
        analysis.addSource(path, content);
    return analysis.run();
}

/** Lint one in-memory buffer with the built-in rule set. */
LintReport
lintText(const std::string &path, const std::string &content)
{
    return analyzeTexts({{path, content}});
}

/** The rule names present in @p report, in finding order. */
std::vector<std::string>
ruleNames(const LintReport &report)
{
    std::vector<std::string> names;
    for (const auto &f : report.findings)
        names.push_back(f.rule);
    return names;
}

bool
hasRule(const LintReport &report, const std::string &rule)
{
    auto names = ruleNames(report);
    return std::find(names.begin(), names.end(), rule) !=
           names.end();
}

} // anonymous namespace

// ------------------------------------------------------- registry

TEST(LintRegistry, BuiltinCatalogIsCompleteAndEnumerable)
{
    RuleRegistry reg = RuleRegistry::builtin();
    std::vector<std::string> names;
    for (const auto &r : reg.rules()) {
        names.push_back(r->name());
        EXPECT_FALSE(r->description().empty())
            << r->name() << " has no description";
    }
    std::vector<std::string> expect = {
        "hot-path-alloc",     "nondeterminism",
        "raw-serialization",  "header-hygiene",
        "unused-suppression", "layering",
        "include-cycle",      "dead-stat",
    };
    EXPECT_EQ(names, expect);
}

TEST(LintRegistry, FindLocatesRulesByName)
{
    RuleRegistry reg = RuleRegistry::builtin();
    ASSERT_NE(reg.find("nondeterminism"), nullptr);
    EXPECT_EQ(reg.find("nondeterminism")->name(), "nondeterminism");
    EXPECT_EQ(reg.find("no-such-rule"), nullptr);
}

namespace
{

/** Inert rule used to probe registry behaviour. */
class DummyRule : public Rule
{
  public:
    explicit DummyRule(std::string rule_name)
        : Rule(std::move(rule_name), "inert test rule",
               Severity::Warning)
    {}
    void
    check(const SourceFile &, std::vector<Finding> &) const override
    {}
};

} // anonymous namespace

TEST(LintRegistryDeathTest, DuplicateRuleNamePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            RuleRegistry reg;
            reg.add(std::make_unique<DummyRule>("twice"));
            reg.add(std::make_unique<DummyRule>("twice"));
        },
        "duplicate lint rule");
}

// ------------------------------------------------- hot-path-alloc

TEST(LintHotPathAlloc, FlagsNewInsideTick)
{
    LintReport r = lintText("src/core/foo.cc",
                            "void Core::tick() {\n"
                            "    int *p = new int(3);\n"
                            "}\n");
    ASSERT_TRUE(hasRule(r, "hot-path-alloc"));
    EXPECT_EQ(r.findings[0].line, 2);
}

TEST(LintHotPathAlloc, FlagsResizeAndMakeUniqueInIssueStage)
{
    LintReport r = lintText(
        "src/dkip/engine.cc",
        "void Engine::issueReady() {\n"
        "    buf.resize(64);\n"
        "    auto q = std::make_unique<Entry>();\n"
        "}\n");
    auto names = ruleNames(r);
    EXPECT_EQ(std::count(names.begin(), names.end(),
                         "hot-path-alloc"),
              2);
}

TEST(LintHotPathAlloc, ConstructorsAndSetupAreExempt)
{
    LintReport r = lintText(
        "src/core/foo.cc",
        "Core::Core(size_t n) {\n"
        "    slots.resize(n);\n"
        "    table = new Entry[n];\n"
        "}\n"
        "void Core::configure() { buf.reserve(128); }\n");
    EXPECT_FALSE(hasRule(r, "hot-path-alloc")) << r.findings.size();
}

TEST(LintHotPathAlloc, ScopeIsHotDirectoriesOnly)
{
    // Same code outside the hot directories is not in scope.
    LintReport r = lintText("tools/report.cc",
                            "void tick() { auto p = new int; }\n");
    EXPECT_FALSE(hasRule(r, "hot-path-alloc"));
}

TEST(LintHotPathAlloc, MemberNamedFreeIsNotTheLibcCall)
{
    LintReport r = lintText("src/util/arena.cc",
                            "void Arena::advanceHead() {\n"
                            "    pool.free(node);\n"
                            "}\n");
    EXPECT_FALSE(hasRule(r, "hot-path-alloc"));
}

// ------------------------------------------------- nondeterminism

TEST(LintNondeterminism, FlagsUnorderedContainers)
{
    LintReport r = lintText(
        "src/stats/agg.cc",
        "std::unordered_map<int, int> counts;\n");
    EXPECT_TRUE(hasRule(r, "nondeterminism"));
}

TEST(LintNondeterminism, FlagsWallClockAndRand)
{
    LintReport r = lintText(
        "src/sim/x.cc",
        "void f() {\n"
        "    auto t = std::chrono::steady_clock::now();\n"
        "    int v = rand();\n"
        "}\n");
    auto names = ruleNames(r);
    EXPECT_EQ(std::count(names.begin(), names.end(),
                         "nondeterminism"),
              2);
}

TEST(LintNondeterminism, SeededProjectRngIsFine)
{
    LintReport r = lintText("src/wload/gen.cc",
                            "kilo::util::Rng rng(seed);\n"
                            "uint64_t v = rng.next();\n");
    EXPECT_FALSE(hasRule(r, "nondeterminism"));
}

// ---------------------------------------------- raw-serialization

TEST(LintRawSerialization, FlagsFwriteOutsideSerializationLayers)
{
    LintReport r = lintText(
        "src/sim/dump.cc",
        "void f(FILE *fp) { fwrite(buf, 1, n, fp); }\n");
    EXPECT_TRUE(hasRule(r, "raw-serialization"));
}

TEST(LintRawSerialization, CkptAndTraceLayersAreExempt)
{
    const char *code =
        "void f(FILE *fp) { std::fwrite(buf, 1, n, fp); }\n";
    EXPECT_FALSE(
        hasRule(lintText("src/ckpt/serial.cc", code),
                "raw-serialization"));
    EXPECT_FALSE(
        hasRule(lintText("src/trace/capture.cc", code),
                "raw-serialization"));
}

// ------------------------------------------------- header-hygiene

TEST(LintHeaderHygiene, FlagsMissingPragmaOnce)
{
    LintReport r = lintText("src/core/foo.hh",
                            "struct Foo { int x; };\n");
    EXPECT_TRUE(hasRule(r, "header-hygiene"));
}

TEST(LintHeaderHygiene, FlagsUsingNamespaceInHeader)
{
    LintReport r = lintText("src/core/foo.hh",
                            "#pragma once\n"
                            "using namespace std;\n");
    EXPECT_TRUE(hasRule(r, "header-hygiene"));
}

TEST(LintHeaderHygiene, FlagsStdEndlEverywhere)
{
    LintReport r = lintText(
        "tools/report.cc",
        "void f(std::ostream &os) { os << std::endl; }\n");
    EXPECT_TRUE(hasRule(r, "header-hygiene"));
}

TEST(LintHeaderHygiene, CleanHeaderPasses)
{
    LintReport r = lintText("src/core/foo.hh",
                            "#pragma once\n"
                            "namespace kilo { struct Foo {}; }\n");
    EXPECT_TRUE(r.clean()) << findingLine(r.findings[0]);
}

// --------------------------------------------------- suppressions

TEST(LintSuppression, TrailingAnnotationSuppressesSameLine)
{
    LintReport r = lintText(
        "src/sim/x.cc",
        "auto t = std::chrono::steady_clock::now();"
        " // kilolint: allow(nondeterminism) deadline\n");
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.suppressionsTotal, 1);
    EXPECT_EQ(r.suppressionsUsed, 1);
}

TEST(LintSuppression, StandaloneAnnotationSuppressesNextLine)
{
    LintReport r = lintText(
        "src/sim/x.cc",
        "// kilolint: allow(nondeterminism) wall deadline\n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.suppressionsUsed, 1);
}

TEST(LintSuppression, UnusedAnnotationIsItselfReported)
{
    LintReport r = lintText(
        "src/sim/x.cc",
        "// kilolint: allow(nondeterminism)\n"
        "int x = 3;\n");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "unused-suppression");
    EXPECT_EQ(r.findings[0].severity, Severity::Warning);
    EXPECT_EQ(r.suppressionsTotal, 1);
    EXPECT_EQ(r.suppressionsUsed, 0);
}

TEST(LintSuppression, SuppressionIsRuleSpecific)
{
    // An allow() for one rule must not blanket others on the line.
    LintReport r = lintText(
        "src/sim/x.cc",
        "// kilolint: allow(raw-serialization)\n"
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(hasRule(r, "nondeterminism"));
    EXPECT_TRUE(hasRule(r, "unused-suppression"));
}

TEST(LintSuppression, DocCommentMentioningSyntaxIsNotAnAnnotation)
{
    LintReport r = lintText(
        "src/sim/x.cc",
        "// Suppress findings with `kilolint: allow(rule)`.\n"
        "int x = 3;\n");
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.suppressionsTotal, 0);
}

// --------------------------------------------------- report shape

TEST(LintReportFormat, FindingLineMatchesContract)
{
    Finding f;
    f.path = "src/core/foo.cc";
    f.line = 12;
    f.rule = "nondeterminism";
    f.message = "wall clock read";
    EXPECT_EQ(findingLine(f),
              "src/core/foo.cc:12: [kilolint-nondeterminism] "
              "wall clock read");
}

// -------------------------------------------------- project model

TEST(LintModel, NormalizePathAndModuleOf)
{
    EXPECT_EQ(normalizePath("/root/repo/src/core/lsq.cc"),
              "src/core/lsq.cc");
    EXPECT_EQ(normalizePath("../src/core/lsq.cc"),
              "src/core/lsq.cc");
    EXPECT_EQ(normalizePath("tools/kilolint.cc"),
              "tools/kilolint.cc");
    EXPECT_EQ(normalizePath("fixture.cc"), "fixture.cc");
    EXPECT_EQ(moduleOf("src/core/lsq.cc"), "core");
    EXPECT_EQ(moduleOf("tools/kilolint.cc"), "tools");
    EXPECT_EQ(moduleOf("fixture.cc"), "");
}

TEST(LintModel, LayerSpecClosesTransitively)
{
    LayerSpec spec = LayerSpec::parse("layers",
                                      "# comment\n"
                                      "util:\n"
                                      "stats: util\n"
                                      "mem: stats\n");
    EXPECT_TRUE(spec.loaded);
    EXPECT_TRUE(spec.errors.empty());
    // mem never names util, but stats does: the closure grants it.
    EXPECT_TRUE(spec.allowed.at("mem").count("util"));
    EXPECT_TRUE(spec.allowed.at("mem").count("stats"));
    EXPECT_FALSE(spec.allowed.at("stats").count("mem"));
}

TEST(LintModel, LayerSpecCycleAndSyntaxAreErrors)
{
    LayerSpec cyc = LayerSpec::parse("layers",
                                     "a: b\n"
                                     "b: a\n");
    ASSERT_FALSE(cyc.errors.empty());
    EXPECT_NE(cyc.errors[0].message.find("cycle"),
              std::string::npos);

    LayerSpec bad = LayerSpec::parse("layers", "no colon here\n");
    ASSERT_FALSE(bad.errors.empty());
    EXPECT_EQ(bad.errors[0].line, 1);
}

// ------------------------------------------------------- layering

namespace
{

const char *kTestLayers =
    "util:\n"
    "stats: util\n"
    "core: stats util\n";

} // namespace

TEST(LintLayering, UpwardIncludeIsFlagged)
{
    LintReport r = analyzeTexts(
        {{"src/util/helper.hh",
          "#pragma once\n"
          "#include \"src/core/engine.hh\"\n"}},
        kTestLayers);
    ASSERT_TRUE(hasRule(r, "layering")) << r.findings.size();
    EXPECT_EQ(r.findings[0].line, 2);
}

TEST(LintLayering, DownwardAndTransitiveIncludesAreClean)
{
    LintReport r = analyzeTexts(
        {{"src/core/engine.hh",
          "#pragma once\n"
          "#include \"src/stats/registry.hh\"\n"
          "#include \"src/util/logging.hh\"\n"},
         {"src/stats/registry.hh",
          "#pragma once\n"
          "#include \"src/util/logging.hh\"\n"}},
        kTestLayers);
    EXPECT_FALSE(hasRule(r, "layering"))
        << findingLine(r.findings[0]);
}

TEST(LintLayering, SuppressionCoversModelFindings)
{
    // An allow() on the include line absorbs the tier-1 finding like
    // any per-file one.
    LintReport r = analyzeTexts(
        {{"src/util/helper.hh",
          "#pragma once\n"
          "#include \"src/core/engine.hh\""
          "  // kilolint: allow(layering)\n"}},
        kTestLayers);
    EXPECT_FALSE(hasRule(r, "layering"));
    EXPECT_EQ(r.suppressionsUsed, 1);
}

TEST(LintLayering, UndeclaredModuleIsFlagged)
{
    LintReport r = analyzeTexts(
        {{"src/rogue/new_code.cc",
          "#include \"src/util/logging.hh\"\n"}},
        kTestLayers);
    ASSERT_TRUE(hasRule(r, "layering"));
    EXPECT_NE(r.findings[0].message.find("not declared"),
              std::string::npos);
}

TEST(LintLayering, ToolsAndTestsAreTopOfStack)
{
    LintReport r = analyzeTexts(
        {{"tools/report.cc",
          "#include \"src/core/engine.hh\"\n"
          "#include \"src/util/logging.hh\"\n"}},
        kTestLayers);
    EXPECT_FALSE(hasRule(r, "layering"));
}

// -------------------------------------------------- include-cycle

TEST(LintIncludeCycle, TwoFileCycleIsFlaggedOnce)
{
    LintReport r = analyzeTexts(
        {{"src/core/a.hh",
          "#pragma once\n#include \"src/core/b.hh\"\n"},
         {"src/core/b.hh",
          "#pragma once\n#include \"src/core/a.hh\"\n"}});
    auto names = ruleNames(r);
    EXPECT_EQ(std::count(names.begin(), names.end(),
                         "include-cycle"),
              1);
}

TEST(LintIncludeCycle, AcyclicChainIsClean)
{
    LintReport r = analyzeTexts(
        {{"src/core/a.hh",
          "#pragma once\n#include \"src/core/b.hh\"\n"},
         {"src/core/b.hh",
          "#pragma once\n#include \"src/core/c.hh\"\n"},
         {"src/core/c.hh", "#pragma once\n"}});
    EXPECT_FALSE(hasRule(r, "include-cycle"));
}

// ------------------------------------------------------ dead-stat

TEST(LintDeadStat, UnwiredCounterIsFlagged)
{
    LintReport r = analyzeTexts(
        {{"src/core/st.cc",
          "void regStats(Registry &r, St &st) {\n"
          "    r.counter(\"hits\", \"d\", &st.hits);\n"
          "    r.counter(\"misses\", \"d\", &st.misses);\n"
          "}\n"
          "void bump(St &st) { ++st.hits; }\n"}});
    auto names = ruleNames(r);
    EXPECT_EQ(std::count(names.begin(), names.end(), "dead-stat"),
              1);
    EXPECT_NE(r.findings[0].message.find("misses"),
              std::string::npos);
}

TEST(LintDeadStat, CrossFileUpdatesCount)
{
    LintReport r = analyzeTexts(
        {{"src/core/reg.cc",
          "void regStats(Registry &r, St &st) {\n"
          "    r.counter(\"hits\", \"d\", &st.hits);\n"
          "}\n"},
         {"src/mem/update.cc",
          "void access(St &st, int n) { st.hits += n; }\n"}});
    EXPECT_FALSE(hasRule(r, "dead-stat"));
}

TEST(LintDeadStat, HistogramSampleAndSubscriptUpdatesCount)
{
    LintReport r = analyzeTexts(
        {{"src/core/st.cc",
          "void regStats(Registry &r, St &st) {\n"
          "    r.histogram(\"lat\", \"d\", &st.lat);\n"
          "    r.counter(\"slots\", \"d\",\n"
          "              &st.slots[size_t(Kind::A)]);\n"
          "}\n"
          "void tickStats(St &st, int k, int v) {\n"
          "    st.lat.sample(v);\n"
          "    st.slots[k] += v;\n"
          "}\n"}});
    EXPECT_FALSE(hasRule(r, "dead-stat"))
        << findingLine(r.findings[0]);
}

TEST(LintDeadStat, GaugesAreExemptAndDeclInitIsNotAnUpdate)
{
    LintReport r = analyzeTexts(
        {{"src/core/st.cc",
          "struct St { uint64_t cycles = 0; };\n"
          "void regStats(Registry &r, St &st) {\n"
          "    r.gauge(\"ipc\", \"d\", [&]{ return 1.0; });\n"
          "    r.counter(\"cycles\", \"d\", &st.cycles);\n"
          "}\n"}});
    // The declaration's `= 0` must not count as an update: cycles
    // really is dead here. The gauge lambda is exempt by design.
    auto names = ruleNames(r);
    EXPECT_EQ(std::count(names.begin(), names.end(), "dead-stat"),
              1);
    EXPECT_NE(r.findings[0].message.find("cycles"),
              std::string::npos);
}

// ------------------------------------------------------ self-scan

#ifdef KILO_SOURCE_DIR
namespace
{

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(LintSelfScan, LiveTreeLintsClean)
{
    std::string root(KILO_SOURCE_DIR);
    RuleRegistry reg = RuleRegistry::builtin();
    LayerSpec layers = LayerSpec::parse(
        root + "/src/lint/layers", readAll(root + "/src/lint/layers"));
    ASSERT_TRUE(layers.errors.empty());

    Analysis analysis(reg, std::move(layers));
    analysis.addPath(root + "/src");
    analysis.addPath(root + "/tools");
    analysis.addPath(root + "/bench");
    analysis.addPath(root + "/examples");
    // tests/*.cpp and tests/*.hh, but not the deliberately bad
    // fixtures under tests/data/.
    std::vector<std::filesystem::path> tests;
    for (const auto &e :
         std::filesystem::directory_iterator(root + "/tests")) {
        std::string ext = e.path().extension().string();
        if (e.is_regular_file() && (ext == ".cpp" || ext == ".hh"))
            tests.push_back(e.path());
    }
    std::sort(tests.begin(), tests.end());
    ASSERT_FALSE(tests.empty());
    for (const auto &p : tests)
        analysis.addPath(p.string());
    LintReport report = analysis.run();

    std::string all;
    for (const auto &f : report.findings)
        all += findingLine(f) + "\n";
    EXPECT_TRUE(report.clean()) << all;
    EXPECT_GT(report.filesScanned, 100);
    // Every sanctioned suppression must still be load-bearing; the
    // count is pinned so exemptions cannot silently accumulate (CI
    // enforces the same cap via kilolint --max-suppressions).
    // 11 = 9 nondeterminism wall-clock sites + 2 raw-serialization;
    // see src/lint/DESIGN.md.
    EXPECT_EQ(report.suppressionsTotal, 11);
    EXPECT_EQ(report.suppressionsUsed, report.suppressionsTotal);
}

TEST(LintSelfScan, SeededLayeringFixtureFails)
{
    // tests/data/lint/bad_layering holds a deliberate upward
    // include (util -> core). If this fixture ever lints clean the
    // layering rule has gone soft — CI asserts the same via the
    // kilolint binary.
    std::string root(KILO_SOURCE_DIR);
    RuleRegistry reg = RuleRegistry::builtin();
    Analysis analysis(
        reg, LayerSpec::parse(root + "/src/lint/layers",
                              readAll(root + "/src/lint/layers")));
    analysis.addPath(root + "/tests/data/lint/bad_layering");
    LintReport report = analysis.run();
    ASSERT_TRUE(hasRule(report, "layering"));
}
#endif
