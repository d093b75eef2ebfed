/**
 * @file
 * The built-in kilolint rules.
 *
 * Each rule is the static twin of a dynamic invariant the test suite
 * pins (see src/lint/DESIGN.md for the full mapping):
 *
 *   hot-path-alloc    — the counting-operator-new zero-allocation
 *                       test (tests/test_arena.cpp)
 *   nondeterminism    — the golden JSONL / trace / sharded-merge
 *                       bit-identity diffs
 *   raw-serialization — the versioned KILOTRC/KILOCKPT formats owned
 *                       by src/trace and src/ckpt
 *   header-hygiene    — include-once, no using-namespace in headers,
 *                       no std::endl
 *
 * plus unused-suppression, emitted by the Analysis driver. The
 * cross-TU rules (layering, include-cycle, dead-stat) live in
 * flow_rules.cc.
 *
 * Rules are token-pattern checks, deliberately heuristic: they key
 * on *names* (a function called `tick` is a hot path; an identifier
 * called `rand` is a random source), which is exactly the level the
 * project's conventions are written at. Anything a rule cannot see
 * (a std::vector::push_back that grows, an ordered map used with a
 * nondeterministic key) stays the dynamic tests' job.
 */

#include <array>
#include <cctype>
#include <string_view>

#include "src/lint/linter.hh"

namespace kilo::lint
{

namespace
{

using sv = std::string_view;

bool
anyOf(sv needle, std::initializer_list<sv> hay)
{
    for (sv h : hay)
        if (needle == h)
            return true;
    return false;
}

// ------------------------------------------------- hot-path-alloc

/** Function names that are steady-state hot paths by convention. */
bool
isHotFunction(const std::string &name)
{
    static constexpr std::array<sv, 22> exact = {
        "tick", "access", "warmAccess", "wouldBlock", "lookup",
        "allocate", "alloc", "free", "next", "nextBlock", "op",
        "endCycle", "idleSkip", "scheduleCompletion",
        "addDependence", "addDependent", "releaseDependents",
        "addSample", "record",
        // KILOAUD digest paths: folded once per audit interval but
        // over the entire architectural state, and required to be
        // zero-perturbation — any allocation here shows up as noise
        // in the run under audit.
        "fold", "foldValues", "stateDigest",
    };
    static constexpr std::array<sv, 14> prefix = {
        "stage", "issue", "dispatch", "commit", "wake", "complete",
        "squash", "recover", "insert", "extract", "push", "pop",
        "advance", "beginCycle",
    };
    for (sv e : exact)
        if (name == e)
            return true;
    for (sv p : prefix)
        if (name.size() > p.size() &&
            name.compare(0, p.size(), p) == 0)
            return true;
    // onCommitInst, onSquashInst, ... — pipeline subclass hooks.
    if (name.size() > 2 && name.compare(0, 2, "on") == 0 &&
        std::isupper(static_cast<unsigned char>(name[2])))
        return true;
    return false;
}

class HotPathAllocRule : public Rule
{
  public:
    HotPathAllocRule()
        : Rule("hot-path-alloc",
               "no heap allocation in tick/issue/commit-class "
               "functions of src/core, src/dkip, src/kilo_proc, "
               "src/mem, src/obs, src/util, nor in the KILOAUD "
               "digest fold paths of src/ckpt and src/stats (static "
               "twin of the counting-operator-new zero-allocation "
               "test)",
               Severity::Error)
    {}

    bool
    appliesTo(const SourceFile &f) const override
    {
        return pathInDir(f.path, "src/core") ||
               pathInDir(f.path, "src/ckpt") ||
               pathInDir(f.path, "src/dkip") ||
               pathInDir(f.path, "src/kilo_proc") ||
               pathInDir(f.path, "src/mem") ||
               pathInDir(f.path, "src/obs") ||
               pathInDir(f.path, "src/stats") ||
               pathInDir(f.path, "src/util");
    }

    void
    check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        // Innermost-enclosing-function map from the project model
        // layer (src/lint/model.hh) — lambdas and local classes
        // inherit the enclosing function's name, which is right for
        // hot-path purposes: their code runs where the function runs.
        std::vector<std::string> fn = enclosingFunctions(f);
        for (size_t i = 0; i < t.size(); ++i) {
            if (fn[i].empty() || !isHotFunction(fn[i]) ||
                t[i].kind != TokKind::Identifier)
                continue;
            const std::string &x = t[i].text;
            const Token &prev = at(t, i ? i - 1 : t.size());
            const Token &next = at(t, i + 1);
            bool member = isPunct(prev, ".") || isPunct(prev, "->");

            if ((x == "new" || x == "delete") && !member) {
                report(out, f, t[i].line,
                       "operator " + x + " in hot function '" +
                           fn[i] + "()'");
            } else if (!member && isPunct(next, "(") &&
                       anyOf(x, {"malloc", "calloc", "realloc",
                                 "aligned_alloc", "strdup",
                                 "free"})) {
                report(out, f, t[i].line,
                       x + "() in hot function '" + fn[i] + "()'");
            } else if (anyOf(x, {"make_unique", "make_shared"}) &&
                       (isPunct(next, "(") || isPunct(next, "<"))) {
                report(out, f, t[i].line,
                       "std::" + x + " in hot function '" + fn[i] +
                           "()'");
            } else if (member && isPunct(next, "(") &&
                       anyOf(x, {"resize", "reserve",
                                 "shrink_to_fit"})) {
                report(out, f, t[i].line,
                       "." + x + "() (container growth) in hot "
                                 "function '" +
                           fn[i] + "()'");
            }
        }
    }
};

// ------------------------------------------------- nondeterminism

class NondeterminismRule : public Rule
{
  public:
    NondeterminismRule()
        : Rule("nondeterminism",
               "no wall clocks, libc/std random sources, or "
               "unordered-container types in code that feeds stats, "
               "JSONL, trace or checkpoint bytes (static twin of "
               "the golden bit-identity diffs); sanctioned wall-"
               "deadline sites carry explicit allow() suppressions",
               Severity::Error)
    {}

    void
    check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier)
                continue;
            const std::string &x = t[i].text;
            const Token &prev = at(t, i ? i - 1 : t.size());
            const Token &next = at(t, i + 1);
            bool member = isPunct(prev, ".") || isPunct(prev, "->");

            if (anyOf(x, {"unordered_map", "unordered_set",
                          "unordered_multimap",
                          "unordered_multiset"})) {
                report(out, f, t[i].line,
                       "std::" + x +
                           ": iteration order is nondeterministic; "
                           "use std::map or a sorted vector");
            } else if (anyOf(x, {"random_device", "mt19937",
                                 "mt19937_64", "minstd_rand",
                                 "minstd_rand0",
                                 "default_random_engine",
                                 "uniform_int_distribution",
                                 "uniform_real_distribution",
                                 "normal_distribution",
                                 "bernoulli_distribution"})) {
                report(out, f, t[i].line,
                       "std::" + x +
                           " is seed/implementation-defined; use "
                           "kilo::Rng (src/util/rng.hh)");
            } else if (!member && isPunct(next, "(") &&
                       anyOf(x, {"rand", "srand", "rand_r",
                                 "drand48", "lrand48", "mrand48",
                                 "random", "srandom"})) {
                report(out, f, t[i].line,
                       x + "() is nondeterministic; use kilo::Rng "
                           "(src/util/rng.hh)");
            } else if (!member && isPunct(next, "(") &&
                       anyOf(x, {"time", "clock", "gettimeofday",
                                 "clock_gettime", "localtime",
                                 "gmtime", "ctime", "getpid"})) {
                report(out, f, t[i].line,
                       x + "() reads wall-clock/process state; "
                           "results must not depend on it");
            } else if (x == "now" && isPunct(prev, "::") &&
                       isPunct(next, "(")) {
                report(out, f, t[i].line,
                       "wall-clock read (::now()); simulated time "
                       "only — suppress only at sanctioned "
                       "deadline sites");
            }
        }
    }
};

// ---------------------------------------------- raw-serialization

class RawSerializationRule : public Rule
{
  public:
    RawSerializationRule()
        : Rule("raw-serialization",
               "no raw-byte file I/O (fwrite/fread) outside the "
               "versioned-format owners: src/ckpt and src/trace "
               "(KILOCKPT/KILOTRC) and src/obs/audit.cc (KILOAUD)",
               Severity::Error)
    {}

    bool
    appliesTo(const SourceFile &f) const override
    {
        // bench/ and examples/ are out of scope: only the portable
        // rules (nondeterminism, header-hygiene) extend there — demo
        // code writing a scratch file is not a format-ownership
        // violation. src/obs/audit.cc is the third
        // format owner: it carries the KILOAUD magic/version/checksum
        // container end to end (src/obs/audit.hh).
        return !pathInDir(f.path, "src/ckpt") &&
               !pathInDir(f.path, "src/trace") &&
               !pathInDir(f.path, "bench") &&
               !pathInDir(f.path, "examples") &&
               f.path.find("src/obs/audit.cc") == std::string::npos;
    }

    void
    check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        for (size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Identifier ||
                !anyOf(t[i].text, {"fwrite", "fread"}))
                continue;
            const Token &prev = at(t, i ? i - 1 : t.size());
            if (isPunct(prev, ".") || isPunct(prev, "->"))
                continue;  // member function of some stream class
            if (!isPunct(at(t, i + 1), "("))
                continue;
            report(out, f, t[i].line,
                   t[i].text +
                       "() outside src/ckpt and src/trace: raw bytes "
                       "on disk need a versioned, checksummed "
                       "format owner");
        }
    }
};

// ------------------------------------------------- header-hygiene

class HeaderHygieneRule : public Rule
{
  public:
    HeaderHygieneRule()
        : Rule("header-hygiene",
               "headers start with #pragma once and never contain "
               "using namespace; std::endl is banned everywhere "
               "(flush per line)",
               Severity::Error)
    {}

    void
    check(const SourceFile &f, std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        if (f.isHeader) {
            bool pragmaOnce = false;
            for (const auto &tok : t) {
                if (tok.kind == TokKind::Directive &&
                    tok.text == "pragma once") {
                    pragmaOnce = true;
                    break;
                }
            }
            if (!pragmaOnce)
                report(out, f, 1, "header is missing #pragma once");
        }
        for (size_t i = 0; i + 1 < t.size(); ++i) {
            if (f.isHeader && t[i].kind == TokKind::Identifier &&
                t[i].text == "using" &&
                t[i + 1].kind == TokKind::Identifier &&
                t[i + 1].text == "namespace") {
                report(out, f, t[i].line,
                       "using namespace in a header leaks into "
                       "every includer");
            }
            if (t[i].kind == TokKind::Identifier &&
                t[i].text == "endl" && i > 0 &&
                isPunct(t[i - 1], "::")) {
                report(out, f, t[i].line,
                       "std::endl flushes the stream; write '\\n'");
            }
        }
    }
};

// --------------------------------------------- unused-suppression

/**
 * Placeholder for --list and the severity table: the findings are
 * produced by Analysis::run while applying suppressions, the only
 * place that knows whether an annotation fired.
 */
class UnusedSuppressionRule : public Rule
{
  public:
    UnusedSuppressionRule()
        : Rule("unused-suppression",
               "a // kilolint: allow(<rule>) annotation that "
               "suppressed no finding is stale and must be removed",
               Severity::Warning)
    {}

    void
    check(const SourceFile &, std::vector<Finding> &) const override
    {}
};

} // anonymous namespace

RuleRegistry
RuleRegistry::builtin()
{
    RuleRegistry reg;
    reg.add(std::make_unique<HotPathAllocRule>());
    reg.add(std::make_unique<NondeterminismRule>());
    reg.add(std::make_unique<RawSerializationRule>());
    reg.add(std::make_unique<HeaderHygieneRule>());
    reg.add(std::make_unique<UnusedSuppressionRule>());
    addModelRules(reg);
    return reg;
}

} // namespace kilo::lint
