/**
 * @file
 * kilolint tier 1: the cross-translation-unit project model.
 *
 * PR 7's rules are per-line token patterns over one file at a time;
 * nothing they can say survives a file boundary. The invariants that
 * keep the sharded sweep fabric and the coming multi-core refactor
 * tractable are *structural*: the module layering (util below stats
 * below mem below core ... — an upward #include couples a foundation
 * layer to its clients), the include graph being acyclic, and every
 * registered stat having an update site.
 *
 * ProjectModel is built in one pass over every lexed file and holds
 * exactly the indices those checks need:
 *
 *   - the project-include graph (normalized "src/..." targets with
 *     the line of each #include);
 *   - every stats::Registry registration site (name literal, method,
 *     bound field identifier) and, project-wide, the set of field
 *     identifiers that are ever mutated, sampled into, or address-
 *     taken outside a registration — the dead-stat cross-check;
 *   - the parsed layer DAG (src/lint/layers) when the analysis was
 *     given one.
 *
 * Like the per-file rules, everything here is heuristic token
 * pattern matching — the bar is "no false positives on this tree"
 * (src/lint/DESIGN.md), not soundness. Checks degrade gracefully:
 * an unparseable construct drops the check, never the build.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/lint/lexer.hh"

namespace kilo::lint
{

/**
 * Repo-relative form of @p path: the suffix starting at the first
 * "src/", "tools/", "bench/", "examples/" or "tests/" component
 * ("/root/repo/src/core/lsq.cc" and "../src/core/lsq.cc" both map
 * to "src/core/lsq.cc"). Paths rooted elsewhere are returned as
 * given, so fixture buffers with synthetic names keep working.
 */
std::string normalizePath(const std::string &path);

/**
 * Module of a normalized path: "core" for "src/core/lsq.cc", the
 * top-level directory name ("tools", "bench", ...) for non-src
 * trees, "" when there is no directory at all.
 */
std::string moduleOf(const std::string &norm_path);

/** One project-local #include ("src/..." target), by line. */
struct IncludeRef
{
    std::string target;  ///< normalized include path text
    int line = 0;
};

/** One stats::Registry registration site. */
struct StatReg
{
    std::string name;    ///< registered stat name (string literal)
    std::string method;  ///< counter / gauge / gaugeInt / histogram
    std::string field;   ///< bound field identifier; "" when none
    std::string file;    ///< normalized
    int line = 0;
};

/**
 * The declared module-layer DAG, parsed from src/lint/layers:
 *
 *     # comment
 *     util:
 *     stats: util
 *     mem: stats util
 *
 * One line per src/ module, listing the modules its files may
 * #include *directly*; the check closes the list transitively (if
 * mem may use stats and stats may use util, mem may use util even
 * when not spelled out). A cycle among the declared edges is a spec
 * error. Modules outside src/ (tools, bench, examples, tests) are
 * implicitly top-of-stack: they may include anything and nothing
 * may include them.
 */
struct LayerSpec
{
    /** A problem in the spec file itself (bad syntax, declared
     *  cycle); the layering rule reports these as findings. */
    struct Error
    {
        int line = 0;
        std::string message;
    };

    std::string path;  ///< display path for findings
    /** module -> transitively closed allowed modules (incl. self). */
    std::map<std::string, std::set<std::string>> allowed;
    std::vector<Error> errors;

    bool loaded = false;  ///< an analysis was given a spec at all

    static LayerSpec parse(const std::string &path,
                           const std::string &text);
};

/**
 * Per-token name of the innermost enclosing function definition in
 * one file; "" for tokens at file/class/namespace scope.
 */
std::vector<std::string> enclosingFunctions(const SourceFile &f);

/** See file comment. Built once per Analysis run. */
class ProjectModel
{
  public:
    /**
     * Build the model over @p files (lexed, any path style). The
     * pointers must outlive the model. @p layers may be
     * default-constructed (loaded == false) to disable the layering
     * check.
     */
    static ProjectModel build(const std::vector<SourceFile> &files,
                              LayerSpec layers);

    const std::vector<const SourceFile *> &files() const
    {
        return files_;
    }

    /** Normalized path of every scanned file, sorted. */
    const std::set<std::string> &scannedPaths() const
    {
        return scanned_;
    }

    /** normalized file -> its project includes, scan order. */
    const std::map<std::string, std::vector<IncludeRef>> &
    includes() const
    {
        return includes_;
    }

    /** Registration sites in src/ files, scan order. */
    const std::vector<StatReg> &statRegs() const { return regs_; }

    /** True when identifier @p field is incremented, assigned,
     *  sampled into, or address-taken outside a registration site
     *  anywhere in the scanned src/ files. */
    bool fieldUpdated(const std::string &field) const
    {
        return updated_.count(field) != 0;
    }

    const LayerSpec &layers() const { return layers_; }

  private:
    std::vector<const SourceFile *> files_;
    std::set<std::string> scanned_;
    std::map<std::string, std::vector<IncludeRef>> includes_;
    std::vector<StatReg> regs_;
    std::set<std::string> updated_;
    LayerSpec layers_;
};

} // namespace kilo::lint
