/**
 * @file
 * Checkpoint byte-stream primitives (KILOCKPT).
 *
 * A checkpoint is a flat byte stream written through a Sink and read
 * back through a bounds-checked Source. Every stateful simulator
 * component exposes `save(ckpt::Sink&) const` / `load(ckpt::Source&)`
 * members that serialize its complete mutable state field by field,
 * in a fixed order, so that restoring a checkpoint and continuing is
 * bit-identical to never having paused (pinned by
 * tests/test_checkpoint.cpp).
 *
 * The in-memory payload can be wrapped in the on-disk KILOCKPT
 * container: an 8-byte magic, a format version, the payload length
 * and an FNV-1a checksum, then the payload. readCheckpointFile
 * rejects bad magic, version mismatches, truncation and corruption
 * with CheckpointError — never with undefined behaviour.
 *
 * Versioning policy: FileVersion bumps on ANY change to the payload
 * layout (there are no per-component version fields; a checkpoint is
 * a whole-simulator snapshot and is never migrated forward). Old
 * checkpoints are rejected, not converted.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace kilo::ckpt
{

/** Any failure to produce or apply a checkpoint. */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Raise CheckpointError when @p got differs from @p want. */
void expectEq(uint64_t got, uint64_t want, const char *what);

/** Raise CheckpointError when @p got exceeds @p cap. */
void expectAtMost(uint64_t got, uint64_t cap, const char *what);

/** What a Sink does with the bytes serialized into it. */
enum class SinkMode : uint8_t
{
    Store,   ///< append to the in-memory payload (checkpointing)
    Digest,  ///< fold into a running FNV-style hash (audit plane)
};

/**
 * Byte consumer a component serializes itself into.
 *
 * The default (SinkMode::Store) grows the checkpoint payload. A
 * Digest sink reuses the exact same save() traversal — every mutable
 * byte the checkpoint machinery covers — but folds each field into a
 * 64-bit word-mixed FNV digest instead of storing it: no allocation,
 * no buffer, just the hash the KILOAUD audit plane records at
 * interval boundaries (src/obs/audit.hh). Each bytes() call folds
 * its length first, so field boundaries contribute to the digest and
 * two adjacent fields cannot alias by concatenation.
 */
class Sink
{
  public:
    Sink() = default;
    explicit Sink(SinkMode m) : mode_(m) {}

    /** Append @p n raw bytes. */
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12 flags the reallocation move inside vector::insert with an
// impossible size when the call is inlined into large callers
// (stringop-overflow false positive, GCC PR 107852 family).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
    void
    bytes(const void *p, size_t n)
    {
        if (mode_ == SinkMode::Digest) {
            fold(p, n);
            return;
        }
        if (!n)
            return; // empty strings may pass a null/dangling data()
        const uint8_t *b = static_cast<const uint8_t *>(p);
        buf.insert(buf.end(), b, b + n);
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

    /** Append one trivially-copyable value verbatim. */
    template <typename T>
    void
    scalar(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "scalar() needs a trivially copyable type");
        bytes(&v, sizeof(v));
    }

    /** Append a length-prefixed string. */
    void
    str(const std::string &s)
    {
        scalar(uint64_t(s.size()));
        bytes(s.data(), s.size());
    }

    /** Append a length-prefixed vector of trivially-copyable T. */
    template <typename T>
    void
    podVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "podVector() needs a trivially copyable type");
        scalar(uint64_t(v.size()));
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    const std::vector<uint8_t> &data() const { return buf; }
    std::vector<uint8_t> take() { return std::move(buf); }
    size_t size() const { return buf.size(); }

    SinkMode mode() const { return mode_; }

    /** Digest accumulated so far (meaningful in Digest mode only). */
    uint64_t digest() const { return hash_; }

  private:
    /**
     * Word-mixed FNV-1a fold: length first, then 8-byte words, then
     * the byte tail. Allocation-free by construction — the audit
     * plane calls this on the hot interval boundary.
     */
    void
    fold(const void *p, size_t n)
    {
        constexpr uint64_t prime = 1099511628211ull;
        uint64_t h = hash_;
        h = (h ^ uint64_t(n)) * prime;
        const uint8_t *b = static_cast<const uint8_t *>(p);
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            uint64_t w;
            std::memcpy(&w, b + i, 8);
            h = (h ^ w) * prime;
        }
        for (; i < n; ++i)
            h = (h ^ b[i]) * prime;
        hash_ = h;
    }

    std::vector<uint8_t> buf;
    SinkMode mode_ = SinkMode::Store;
    uint64_t hash_ = 14695981039346656037ull; // FNV-1a offset basis
};

/** Bounds-checked reader over a checkpoint payload. */
class Source
{
  public:
    Source(const uint8_t *data, size_t size) : p(data), len(size) {}

    explicit Source(const std::vector<uint8_t> &v)
        : p(v.data()), len(v.size())
    {}

    /** Read @p n raw bytes; throws CheckpointError on overrun. */
    void
    bytes(void *out, size_t n)
    {
        if (n > len - off || off > len)
            throw CheckpointError("checkpoint truncated: read past "
                                  "end of payload");
        std::memcpy(out, p + off, n);
        off += n;
    }

    template <typename T>
    T
    scalar()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "scalar() needs a trivially copyable type");
        T v;
        bytes(&v, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        uint64_t n = scalar<uint64_t>();
        if (n > remaining())
            throw CheckpointError("checkpoint truncated: string "
                                  "length past end of payload");
        std::string s(size_t(n), '\0');
        bytes(s.data(), size_t(n));
        return s;
    }

    template <typename T>
    void
    podVector(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "podVector() needs a trivially copyable type");
        uint64_t n = scalar<uint64_t>();
        if (n > remaining() / sizeof(T))
            throw CheckpointError("checkpoint truncated: vector "
                                  "length past end of payload");
        v.resize(size_t(n));
        if (n)
            bytes(v.data(), size_t(n) * sizeof(T));
    }

    size_t remaining() const { return len - off; }
    bool atEnd() const { return off == len; }

  private:
    const uint8_t *p;
    size_t len;
    size_t off = 0;
};

/** On-disk KILOCKPT container. @{ */

/** File magic, first 8 bytes of every KILOCKPT file. */
constexpr char FileMagic[8] = {'K', 'I', 'L', 'O', 'C', 'K', 'P', 'T'};

/**
 * Container format version; bumped on any payload-layout change.
 * v2: Session payload carries the audit cursor (nextAuditAt, rolling
 * digest) and PipelineBase appends the debug-flip latch.
 */
constexpr uint32_t FileVersion = 2;

/** FNV-1a over @p n bytes (payload integrity). */
uint64_t fnv1a(const uint8_t *p, size_t n);

/** Write @p payload to @p path in the KILOCKPT container. */
void writeCheckpointFile(const std::string &path,
                         const std::vector<uint8_t> &payload);

/**
 * Read and validate a KILOCKPT file; returns the payload. Throws
 * CheckpointError on bad magic, version mismatch, truncation or a
 * checksum failure.
 */
std::vector<uint8_t> readCheckpointFile(const std::string &path);

/** @} */

/** An in-memory simulator snapshot (Session::checkpoint payload). */
struct Checkpoint
{
    std::vector<uint8_t> bytes;
};

} // namespace kilo::ckpt

