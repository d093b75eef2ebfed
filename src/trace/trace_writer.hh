/**
 * @file
 * Streaming trace writer: header + block-framed record emission.
 *
 * The writer encodes records straight into a fixed block buffer and
 * flushes a framed block when the payload crosses BlockTargetBytes,
 * so capture adds one fwrite per ~64 KB of trace, not one per
 * micro-op. The buffer has MaxRecordBytes of headroom past the
 * threshold, so a record never needs a room check. finish() flushes the
 * tail block and back-patches the header's total op count; the
 * destructor calls it for you (best-effort) if you forget.
 */

#pragma once

#include <cstdio>
#include <vector>

#include "src/trace/trace_format.hh"

namespace kilo::trace
{

/** Writes one trace file; not copyable, single-stream. */
class Writer
{
  public:
    /** Open @p path for writing and emit the header. Throws
     *  TraceError when the file cannot be created. */
    Writer(const std::string &path, const TraceMeta &meta);

    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /** Append one micro-op record. */
    void
    append(const isa::MicroOp &op)
    {
        cursor = encodeOp(cursor, op, codec);
        ++blockOps;
        ++nOps;
        if (size_t(cursor - block.data()) >= BlockTargetBytes)
            flushBlock();
    }

    /** Flush the tail block, patch the header op count and close.
     *  Idempotent. Throws TraceError on write failure. */
    void finish();

    /** Total ops appended so far. */
    uint64_t opCount() const { return nOps; }

    /** Metadata written to the header. */
    const TraceMeta &meta() const { return meta_; }

  private:
    void flushBlock();

    TraceMeta meta_;
    std::string path_;
    std::FILE *file = nullptr;
    /** Current block, encoded; sized once to BlockTargetBytes +
     *  MaxRecordBytes. Records are written at `cursor`. */
    std::vector<uint8_t> block;
    uint8_t *cursor = nullptr;
    uint32_t blockOps = 0;          ///< records in `block`
    CodecState codec;
    uint64_t nOps = 0;
    bool finished = false;
};

} // namespace kilo::trace

