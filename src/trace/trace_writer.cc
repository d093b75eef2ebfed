#include "src/trace/trace_writer.hh"

#include <bit>

namespace kilo::trace
{

namespace
{

void
putBytes(std::FILE *f, const void *data, size_t size,
         const std::string &path)
{
    if (size && std::fwrite(data, 1, size, f) != size)
        throw TraceError("trace write failed: " + path);
}

template <typename T>
void
putScalar(std::FILE *f, T v, const std::string &path)
{
    // The format is little-endian; every supported target is too, so
    // a byte copy of the in-memory representation is the encoding.
    static_assert(std::endian::native == std::endian::little,
                  "trace format requires a little-endian host");
    putBytes(f, &v, sizeof(v), path);
}

} // anonymous namespace

Writer::Writer(const std::string &path, const TraceMeta &meta)
    : meta_(meta), path_(path), block(BlockTargetBytes + MaxRecordBytes),
      cursor(block.data())
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        throw TraceError("cannot create trace file: " + path);

    try {
        // Header. The op count at OpCountOffset is a placeholder
        // patched by finish(); everything else is final.
        putBytes(file, Magic, sizeof(Magic), path_);
        putScalar(file, FormatVersion, path_);
        putScalar(file, uint64_t(0), path_); // op count (patched)
        putScalar(file, meta_.seed, path_);
        putScalar(file, uint8_t(meta_.fp ? 1 : 0), path_);
        uint16_t name_len = uint16_t(meta_.name.size());
        putScalar(file, name_len, path_);
        putBytes(file, meta_.name.data(), name_len, path_);
        putScalar(file, uint32_t(meta_.regions.size()), path_);
        for (const auto &r : meta_.regions) {
            putScalar(file, r.base, path_);
            putScalar(file, r.bytes, path_);
        }
    } catch (...) {
        std::fclose(file);
        file = nullptr;
        throw;
    }
}

Writer::~Writer()
{
    try {
        finish();
    } catch (const TraceError &e) {
        // Destructors must not throw; the explicit finish() path is
        // the one that reports failures.
        std::fprintf(stderr, "warn: %s\n", e.what());
    }
}

void
Writer::flushBlock()
{
    if (blockOps == 0)
        return;
    const size_t size = size_t(cursor - block.data());
    putScalar(file, uint32_t(size), path_);
    putScalar(file, blockOps, path_);
    putScalar(file, blockChecksum(block.data(), size), path_);
    putBytes(file, block.data(), size, path_);
    cursor = block.data();
    blockOps = 0;
    codec = CodecState{}; // blocks decode independently
}

void
Writer::finish()
{
    if (finished)
        return;
    try {
        flushBlock();
        if (std::fseek(file, OpCountOffset, SEEK_SET) != 0) {
            throw TraceError("trace op-count patch seek failed: " +
                             path_);
        }
        uint64_t n = nOps;
        putBytes(file, &n, sizeof(n), path_);
    } catch (...) {
        // The trace is broken either way; don't leak the handle, and
        // don't let the destructor re-enter a failed finish.
        std::fclose(file);
        file = nullptr;
        finished = true;
        throw;
    }
    finished = true;
    if (std::fclose(file) != 0) {
        file = nullptr;
        throw TraceError("trace close failed: " + path_);
    }
    file = nullptr;
}

} // namespace kilo::trace
