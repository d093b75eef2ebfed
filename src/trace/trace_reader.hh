/**
 * @file
 * Trace reader and the replay workload built on it.
 *
 * Reader serves a KILOTRC file block by block, validating framing,
 * checksums and record encoding as it goes — every way a file can be
 * malformed (bad magic, newer version, truncation, mid-block bit
 * flips) raises TraceError with a specific message, never UB.
 *
 * The whole file is mapped read-only: nextBlockView() returns
 * pointers straight into the mapping, so replay decodes zero-copy and
 * N worker processes replaying one file on a host share its pages
 * through the page cache (the fan-out mode sharded sweeps use — see
 * src/shard/DESIGN.md). A path that cannot be mapped (a directory, a
 * pipe) raises TraceError("cannot mmap trace file: ...").
 *
 * The malformation guarantee covers the file's *contents* as mapped.
 * Like any mmap consumer, the reader assumes the file is not truncated
 * by another process while open: shrinking a live mapping yields
 * SIGBUS on the vanished pages, which no userspace validation can turn
 * into an exception. Re-recording a trace in place while workers
 * replay it is a usage error; write to a temp path and rename.
 *
 * TraceWorkload adapts a Reader to the wload::Workload interface:
 * deterministic, endless (the stream wraps to block 0 at EOF, like
 * every other workload), with regions() served from the header for
 * cache prewarm and nextBlock() decoding straight through with one
 * virtual call per batch.
 */

#pragma once

#include <vector>

#include "src/trace/trace_format.hh"

namespace kilo::trace
{

/** How a Reader serves blocks: mmap is the only backend, kept as a
 *  type so callers that name it keep compiling. */
enum class ReadMode : uint8_t
{
    Mmap,
};

/** Block-at-a-time reader of one trace file. */
class Reader
{
  public:
    /** Map @p path and parse the header; throws TraceError when the
     *  file cannot be mapped or is malformed. */
    explicit Reader(const std::string &path,
                    ReadMode mode = ReadMode::Mmap);

    ~Reader();

    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    /** Header metadata. */
    const TraceMeta &meta() const { return meta_; }

    /** Total records in the file (from the header). */
    uint64_t opCount() const { return nOps; }

    /**
     * Decode the next block into @p out (replacing its contents).
     * Returns false at a clean end-of-file; throws TraceError on a
     * truncated frame, checksum mismatch or undecodable payload.
     */
    bool readBlock(std::vector<isa::MicroOp> &out);

    /**
     * Validate the next block and expose its payload without copying:
     * the pointers land straight in the file mapping. Returns the
     * block's record count, or 0 at a clean end-of-file (payload left
     * null). The view lives as long as the Reader.
     */
    uint32_t nextBlockView(const uint8_t *&payload,
                           size_t &payload_bytes);

    /**
     * Skip forward past whole blocks totalling at most @p n records,
     * without decoding or checksumming their payloads — pure pointer
     * arithmetic over the mapping. Stops before a block that would
     * overshoot @p n and at a clean end-of-file; returns the records
     * actually skipped (<= @p n). Frame plausibility and truncation
     * are still validated; payload corruption inside a skipped block
     * goes undetected by design (fast-forward never consumes it).
     */
    uint64_t skipOps(uint64_t n);

    /** Seek back to the first block. */
    void rewind();

  private:
    TraceMeta meta_;
    std::string path_;

    const uint8_t *map = nullptr;
    size_t mapBytes = 0;
    size_t mapOff = 0;               ///< next unread byte

    size_t firstBlockOffset = 0;
    uint64_t nOps = 0;
};

/** Deterministic replay of a trace file as a Workload. */
class TraceWorkload : public wload::Workload
{
  public:
    /** Throws TraceError on a malformed or empty trace. */
    explicit TraceWorkload(const std::string &path,
                           ReadMode mode = ReadMode::Mmap);

    isa::MicroOp next() override;
    size_t nextBlock(isa::MicroOp *out, size_t n) override;
    void skip(uint64_t n) override;
    const std::string &name() const override
    {
        return reader.meta().name;
    }
    bool isFp() const override { return reader.meta().fp; }
    void reset() override;
    std::vector<wload::AddressRegion> regions() const override
    {
        return reader.meta().regions;
    }

    /** Records in the underlying file (one pass, before wrapping). */
    uint64_t traceOps() const { return reader.opCount(); }

  private:
    void refill();
    isa::MicroOp decodeNext();

    Reader reader;

    /** Current block: records are parsed straight out of the mapped
     *  pages into the consumer's buffer, so replay is one decode pass
     *  with no intermediate op vector. @{ */
    const uint8_t *cursor = nullptr;
    const uint8_t *payloadEnd = nullptr;
    uint32_t remainingOps = 0;        ///< undecoded records left
    uint64_t opsThisPass = 0;         ///< ops loaded since block 0
    CodecState codec;
    /** @} */
};

/** Convenience: open @p path for replay. */
wload::WorkloadPtr openTrace(const std::string &path);

} // namespace kilo::trace

