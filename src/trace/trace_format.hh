/**
 * @file
 * The KILOTRC binary micro-op trace format: constants, metadata and
 * the per-record codec shared by the writer and the reader.
 *
 * A trace file turns a workload into a durable, exchangeable artifact:
 * a versioned little-endian header (provenance: name, FP suite flag,
 * generator seed, prewarm regions) followed by a sequence of framed
 * blocks of delta+varint-encoded MicroOp records. Blocks are
 * independently decodable (the delta predictor resets per block) and
 * carry their uncompressed payload size, record count and a checksum,
 * so a reader can stream, skip or validate blocks without decoding
 * the whole file. See src/trace/DESIGN.md for the layout diagram and
 * the versioning policy.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/isa/micro_op.hh"
#include "src/wload/workload.hh"

namespace kilo::trace
{

/** First 8 bytes of every trace file ("KILOTRC" + format family). */
constexpr char Magic[8] = {'K', 'I', 'L', 'O', 'T', 'R', 'C', '1'};

/** Current format version; bumped on any layout change. */
constexpr uint32_t FormatVersion = 1;

/** Target uncompressed payload bytes per block (flush threshold). */
constexpr size_t BlockTargetBytes = 64 * 1024;

/** Upper bound a reader accepts for one block's payload; a declared
 *  size beyond this is treated as corruption, not an allocation. */
constexpr size_t BlockMaxBytes = 4 * 1024 * 1024;

/** Byte offset of the total-op-count field patched by finish(). */
constexpr long OpCountOffset = 12;

/** Upper bound of one encoded record: 4 fixed bytes + memSize + three
 *  varints of at most 10 bytes each. The decoder takes an unchecked
 *  fast path while at least this many payload bytes remain, and the
 *  writer's block buffer keeps this much headroom past
 *  BlockTargetBytes, so the encoder never checks for room. (No op
 *  class has both an address and a target, so real records stop at
 *  25 bytes; the bound is the plain sum.) */
constexpr size_t MaxRecordBytes = 35;

/** Malformed, truncated or mismatched trace input. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Provenance carried in the trace header. */
struct TraceMeta
{
    std::string name = "trace";     ///< benchmark name
    bool fp = false;                ///< FP suite member
    uint64_t seed = 0;              ///< generator seed (provenance)
    std::vector<wload::AddressRegion> regions;  ///< prewarm regions
};

/**
 * Delta predictor of the record codec. PCs and effective addresses
 * are encoded as zigzag deltas from the previous record's values;
 * branch targets as deltas from the branch's own PC. The state is
 * reset at every block boundary so blocks decode independently.
 */
struct CodecState
{
    uint64_t prevPc = 0;
    uint64_t prevEffAddr = 0;
};

/** 32-bit word-mixed checksum over a block payload. */
uint32_t blockChecksum(const uint8_t *data, size_t size);

namespace detail
{

/**
 * Record layout (all fields little-endian, byte-granular):
 *
 *   byte 0      bits 0-3: OpClass, bit 4: taken
 *   byte 1-3    src1+1, src2+1, dst+1   (0 encodes NoReg)
 *   varint      zigzag(pc - prevPc)
 *   [mem only]  varint zigzag(effAddr - prevEffAddr), byte memSize
 *   [branch]    varint zigzag(target - pc)
 *
 * Register fields are +1-biased so the common NoReg sentinel is the
 * zero byte; the synthetic ISA's 64-register namespace fits a byte
 * with room to spare. The decoder lives here, inline, because replay
 * feeds the simulator's hottest loop — every micro-op fetched passes
 * through decodeOp.
 */

constexpr uint8_t TakenBit = 0x10;
constexpr uint8_t ClassMask = 0x0f;

inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return int64_t(v >> 1) ^ -int64_t(v & 1);
}

/**
 * Varint decode. @tparam Checked bounds-checks every byte; the
 * unchecked variant is only entered with MaxRecordBytes of payload
 * remaining, and the 64-bit shift cap bounds it to 10 bytes, so it
 * can never read past the block even on corrupt input.
 */
template <bool Checked>
inline uint64_t
getVarint(const uint8_t *&cursor, const uint8_t *end)
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (Checked && cursor >= end)
            throw TraceError("trace block corrupt: varint overruns "
                             "block payload");
        if (shift >= 64)
            throw TraceError("trace block corrupt: varint longer "
                             "than 64 bits");
        uint8_t byte = *cursor++;
        v |= uint64_t(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** Varint encode; writes 1..10 bytes and returns the new cursor. */
inline uint8_t *
putVarint(uint8_t *out, uint64_t v)
{
    while (v >= 0x80) {
        *out++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *out++ = uint8_t(v);
    return out;
}

inline int16_t
decodeReg(uint8_t byte)
{
    if (byte > uint8_t(isa::NumRegs))
        throw TraceError("trace block corrupt: register id out of "
                         "range");
    return int16_t(byte) - 1;
}

template <bool Checked>
inline uint8_t
getByte(const uint8_t *&cursor, const uint8_t *end)
{
    if (Checked && cursor >= end)
        throw TraceError("trace block corrupt: record overruns block "
                         "payload");
    return *cursor++;
}

template <bool Checked>
inline isa::MicroOp
decodeOpImpl(const uint8_t *&cursor, const uint8_t *end,
             CodecState &state)
{
    isa::MicroOp op;
    uint8_t head = getByte<Checked>(cursor, end);
    uint8_t cls = head & ClassMask;
    if (cls >= uint8_t(isa::NumOpClasses))
        throw TraceError("trace block corrupt: op class out of "
                         "range");
    op.cls = isa::OpClass(cls);
    op.taken = (head & TakenBit) != 0;
    op.src1 = decodeReg(getByte<Checked>(cursor, end));
    op.src2 = decodeReg(getByte<Checked>(cursor, end));
    op.dst = decodeReg(getByte<Checked>(cursor, end));
    op.pc = state.prevPc +
        uint64_t(unzigzag(getVarint<Checked>(cursor, end)));
    state.prevPc = op.pc;
    if (op.isMem()) {
        op.effAddr = state.prevEffAddr +
            uint64_t(unzigzag(getVarint<Checked>(cursor, end)));
        state.prevEffAddr = op.effAddr;
        op.memSize = getByte<Checked>(cursor, end);
    }
    if (op.isBranch()) {
        op.target = op.pc +
            uint64_t(unzigzag(getVarint<Checked>(cursor, end)));
    }
    return op;
}

} // namespace detail

/**
 * Encode @p op at @p out, advancing @p state, and return one past the
 * last byte written. The caller guarantees MaxRecordBytes of room:
 * capture encodes every recorded op, so there is no per-byte bounds
 * or capacity check.
 */
inline uint8_t *
encodeOp(uint8_t *out, const isa::MicroOp &op, CodecState &state)
{
    using detail::putVarint;
    using detail::zigzag;
    out[0] = uint8_t(uint8_t(op.cls) & detail::ClassMask) |
        (op.taken ? detail::TakenBit : 0);
    out[1] = uint8_t(op.src1 + 1); // +1 bias: NoReg is byte 0
    out[2] = uint8_t(op.src2 + 1);
    out[3] = uint8_t(op.dst + 1);
    out = putVarint(out + 4, zigzag(int64_t(op.pc - state.prevPc)));
    state.prevPc = op.pc;
    if (op.isMem()) {
        out = putVarint(out,
                        zigzag(int64_t(op.effAddr - state.prevEffAddr)));
        state.prevEffAddr = op.effAddr;
        *out++ = op.memSize;
    }
    if (op.isBranch())
        out = putVarint(out, zigzag(int64_t(op.target - op.pc)));
    return out;
}

/**
 * Decode one record from [@p cursor, @p end), advancing @p cursor and
 * @p state. Throws TraceError on any overrun or invalid field — a
 * corrupt block can never produce UB or a silently wrong op.
 */
inline isa::MicroOp
decodeOp(const uint8_t *&cursor, const uint8_t *end,
         CodecState &state)
{
    if (size_t(end - cursor) >= MaxRecordBytes)
        return detail::decodeOpImpl<false>(cursor, end, state);
    return detail::decodeOpImpl<true>(cursor, end, state);
}

} // namespace kilo::trace

