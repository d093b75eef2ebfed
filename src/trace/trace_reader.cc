#include "src/trace/trace_reader.hh"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace kilo::trace
{

namespace
{

/** Bounds-checked cursor the header parser runs over the mapping. */
struct MemSource
{
    const uint8_t *p;
    const uint8_t *end;

    void
    bytes(void *out, size_t size, const char *what)
    {
        if (size_t(end - p) < size)
            throw TraceError(
                std::string("trace truncated: EOF inside ") + what);
        std::memcpy(out, p, size);
        p += size;
    }

    template <typename T>
    T
    scalar(const char *what)
    {
        T v;
        bytes(&v, sizeof(v), what);
        return v;
    }
};

void
parseHeader(MemSource &src, const std::string &path, TraceMeta &meta,
            uint64_t &n_ops)
{
    char magic[sizeof(Magic)];
    src.bytes(magic, sizeof(magic), "magic");
    if (std::memcmp(magic, Magic, sizeof(Magic)) != 0)
        throw TraceError("not a KILOTRC trace file: " + path);
    uint32_t version = src.scalar<uint32_t>("version");
    if (version != FormatVersion) {
        throw TraceError("trace version mismatch: file v" +
                         std::to_string(version) + ", reader v" +
                         std::to_string(FormatVersion) + ": " + path);
    }
    n_ops = src.scalar<uint64_t>("op count");
    meta.seed = src.scalar<uint64_t>("seed");
    meta.fp = src.scalar<uint8_t>("fp flag") != 0;
    uint16_t name_len = src.scalar<uint16_t>("name length");
    meta.name.resize(name_len);
    src.bytes(meta.name.data(), name_len, "name");
    uint32_t num_regions = src.scalar<uint32_t>("region count");
    for (uint32_t i = 0; i < num_regions; ++i) {
        wload::AddressRegion r;
        r.base = src.scalar<uint64_t>("region base");
        r.bytes = src.scalar<uint64_t>("region size");
        meta.regions.push_back(r);
    }
}

/** The 12-byte header of one block: payload size, record count,
 *  checksum. */
struct BlockFrame
{
    uint32_t payloadBytes;
    uint32_t blockOps;
    uint32_t checksum;
};

/** Decode and plausibility-check the frame at @p raw, with @p avail
 *  mapped bytes from there to end-of-file: the frame and its whole
 *  payload must fit. */
BlockFrame
parseFrame(const uint8_t *raw, size_t avail, const std::string &path)
{
    if (avail < 12)
        throw TraceError("trace truncated: torn block frame: " + path);
    BlockFrame f;
    std::memcpy(&f.payloadBytes, raw + 0, 4);
    std::memcpy(&f.blockOps, raw + 4, 4);
    std::memcpy(&f.checksum, raw + 8, 4);
    if (f.payloadBytes == 0 || f.payloadBytes > BlockMaxBytes ||
        f.blockOps == 0) {
        throw TraceError("trace block corrupt: implausible frame "
                         "(payload " +
                         std::to_string(f.payloadBytes) + " B, " +
                         std::to_string(f.blockOps) + " ops): " +
                         path);
    }
    if (avail - 12 < f.payloadBytes)
        throw TraceError("trace truncated: EOF inside block payload: " +
                         path);
    return f;
}

void
checkPayload(const BlockFrame &f, const uint8_t *payload,
             const std::string &path)
{
    if (blockChecksum(payload, f.payloadBytes) != f.checksum)
        throw TraceError("trace block corrupt: checksum mismatch: " +
                         path);
}

} // anonymous namespace

Reader::Reader(const std::string &path, ReadMode)
    : path_(path)
{
    // O_NONBLOCK: opening a FIFO must not wait for a writer; the
    // regular-file check below then rejects it.
    int fd = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd < 0)
        throw TraceError("cannot open trace file: " + path_);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw TraceError("cannot stat trace file: " + path_);
    }
    if (!S_ISREG(st.st_mode)) {
        ::close(fd);
        throw TraceError("cannot mmap trace file: " + path_);
    }
    size_t size = size_t(st.st_size);
    if (size == 0) {
        ::close(fd);
        throw TraceError("trace truncated: EOF inside magic: " +
                         path_);
    }
    void *m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (m == MAP_FAILED)
        throw TraceError("cannot mmap trace file: " + path_);
    map = static_cast<const uint8_t *>(m);
    mapBytes = size;
    try {
        MemSource src{map, map + mapBytes};
        parseHeader(src, path_, meta_, nOps);
        firstBlockOffset = size_t(src.p - map);
    } catch (...) {
        ::munmap(const_cast<uint8_t *>(map), mapBytes);
        throw;
    }
    mapOff = firstBlockOffset;
}

Reader::~Reader()
{
    ::munmap(const_cast<uint8_t *>(map), mapBytes);
}

uint32_t
Reader::nextBlockView(const uint8_t *&payload, size_t &payload_bytes)
{
    payload = nullptr;
    payload_bytes = 0;
    if (mapOff == mapBytes)
        return 0; // clean end-of-file
    BlockFrame f = parseFrame(map + mapOff, mapBytes - mapOff, path_);
    checkPayload(f, map + mapOff + 12, path_);
    payload = map + mapOff + 12;
    payload_bytes = f.payloadBytes;
    mapOff += 12 + size_t(f.payloadBytes);
    return f.blockOps;
}

bool
Reader::readBlock(std::vector<isa::MicroOp> &out)
{
    out.clear();
    const uint8_t *cursor = nullptr;
    size_t bytes = 0;
    uint32_t block_ops = nextBlockView(cursor, bytes);
    if (block_ops == 0)
        return false;

    out.reserve(block_ops);
    CodecState codec;
    const uint8_t *end = cursor + bytes;
    for (uint32_t i = 0; i < block_ops; ++i)
        out.push_back(decodeOp(cursor, end, codec));
    if (cursor != end)
        throw TraceError("trace block corrupt: " +
                         std::to_string(end - cursor) +
                         " undecoded trailing bytes: " + path_);
    return true;
}

uint64_t
Reader::skipOps(uint64_t n)
{
    uint64_t skipped = 0;
    while (n > 0 && mapOff != mapBytes) {
        BlockFrame f = parseFrame(map + mapOff, mapBytes - mapOff, path_);
        if (f.blockOps > n)
            break; // this block overshoots; leave it for the decode path
        mapOff += 12 + size_t(f.payloadBytes);
        n -= f.blockOps;
        skipped += f.blockOps;
    }
    return skipped;
}

void
Reader::rewind()
{
    mapOff = firstBlockOffset;
}

TraceWorkload::TraceWorkload(const std::string &path, ReadMode mode)
    : reader(path, mode)
{
    refill();
}

void
TraceWorkload::refill()
{
    if (remainingOps == 0 && cursor != payloadEnd && cursor != nullptr)
        throw TraceError("trace block corrupt: undecoded trailing "
                         "bytes");
    size_t bytes = 0;
    remainingOps = reader.nextBlockView(cursor, bytes);
    if (remainingOps == 0) {
        // End of file: the blocks walked must account for exactly the
        // op count the header was sealed with — a file truncated at a
        // block boundary, or never finish()ed, would otherwise wrap
        // early and replay a plausible but wrong stream.
        if (opsThisPass != reader.opCount()) {
            throw TraceError(
                "trace truncated: header declares " +
                std::to_string(reader.opCount()) +
                " ops, blocks hold " + std::to_string(opsThisPass));
        }
        // The Workload contract is an endless stream: wrap to block
        // 0, exactly like reset().
        reader.rewind();
        opsThisPass = 0;
        remainingOps = reader.nextBlockView(cursor, bytes);
        if (remainingOps == 0)
            throw TraceError("trace contains no records");
    }
    opsThisPass += remainingOps;
    payloadEnd = cursor + bytes;
    codec = CodecState{};
}

isa::MicroOp
TraceWorkload::decodeNext()
{
    if (remainingOps == 0)
        refill();
    --remainingOps;
    return decodeOp(cursor, payloadEnd, codec);
}

isa::MicroOp
TraceWorkload::next()
{
    return decodeNext();
}

size_t
TraceWorkload::nextBlock(isa::MicroOp *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = decodeNext();
    return n;
}

void
TraceWorkload::skip(uint64_t n)
{
    while (n > 0) {
        if (remainingOps > 0) {
            // Mid-block: the delta codec is sequential, so records up
            // to the block boundary (or the target) decode-discard.
            uint64_t take =
                n < remainingOps ? n : uint64_t(remainingOps);
            for (uint64_t i = 0; i < take; ++i)
                (void)decodeOp(cursor, payloadEnd, codec);
            remainingOps -= uint32_t(take);
            n -= take;
            continue;
        }
        if (cursor != payloadEnd)
            throw TraceError("trace block corrupt: undecoded "
                             "trailing bytes");
        // Block boundary: leap whole blocks without decoding.
        uint64_t skipped = reader.skipOps(n);
        opsThisPass += skipped;
        n -= skipped;
        if (n > 0) {
            // Either the next block overshoots (decode into it) or
            // we hit end-of-file (refill() wraps to block 0).
            refill();
        }
    }
}

void
TraceWorkload::reset()
{
    reader.rewind();
    // Discard any partially-decoded block before pulling block 0.
    remainingOps = 0;
    opsThisPass = 0;
    cursor = payloadEnd;
    refill();
}

wload::WorkloadPtr
openTrace(const std::string &path)
{
    return std::make_unique<TraceWorkload>(path);
}

} // namespace kilo::trace
