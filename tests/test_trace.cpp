/**
 * @file
 * Tests of the trace subsystem: header round-trip, capture→replay
 * op-for-op identity over every synthetic preset, end-to-end
 * bit-identical simulation results between live and replayed runs on
 * all three machine models, endless-wrap/reset semantics, and robust
 * rejection of malformed files (truncation, bad magic, version
 * mismatch, mid-block corruption).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/trace/trace_writer.hh"
#include "src/wload/profile.hh"
#include "src/wload/synthetic.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::trace;

namespace
{

/** Fresh path under the gtest temp dir; removed by the fixture. */
class TraceTest : public ::testing::Test
{
  protected:
    std::string
    tracePath(const std::string &tag)
    {
        std::string p = ::testing::TempDir() + "kilo_" + tag + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() + ".ktrc";
        files.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const auto &f : files)
            std::remove(f.c_str());
    }

    std::vector<std::string> files;
};

/** Read the whole file into a byte vector. */
std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Overwrite the file with the first @p n bytes of @p bytes. */
void
rewrite(const std::string &path, const std::vector<char> &bytes,
        size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), long(std::min(n, bytes.size())));
}

/** FNV-1a 64 over @p size bytes, continuing from @p h. */
uint64_t
fnv1a64(const void *data, size_t size,
        uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *b = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i)
        h = (h ^ b[i]) * 0x100000001b3ull;
    return h;
}

/** FNV-1a 64 of one op, field by field (no padding bytes). */
uint64_t
fnvOp(const isa::MicroOp &op, uint64_t h)
{
    const uint8_t cls = uint8_t(op.cls), taken = op.taken;
    h = fnv1a64(&op.pc, sizeof(op.pc), h);
    h = fnv1a64(&cls, 1, h);
    h = fnv1a64(&op.src1, sizeof(op.src1), h);
    h = fnv1a64(&op.src2, sizeof(op.src2), h);
    h = fnv1a64(&op.dst, sizeof(op.dst), h);
    h = fnv1a64(&op.effAddr, sizeof(op.effAddr), h);
    h = fnv1a64(&op.memSize, 1, h);
    h = fnv1a64(&taken, 1, h);
    return fnv1a64(&op.target, sizeof(op.target), h);
}

} // anonymous namespace

// ------------------------------------------------- header round-trip

TEST_F(TraceTest, HeaderMetadataRoundTrips)
{
    auto path = tracePath("hdr");
    TraceMeta meta;
    meta.name = "my-kernel";
    meta.fp = true;
    meta.seed = 0xdeadbeefcafeull;
    meta.regions = {{0x1000, 4096}, {0x40000000, 1 << 20}};
    {
        Writer w(path, meta);
        w.append(isa::makeLoad(8, 4, 0x1000, 0x100));
        w.append(isa::makeBranch(8, true, 0x100, 0x104));
        w.finish();
    }
    Reader r(path);
    EXPECT_EQ(r.meta().name, "my-kernel");
    EXPECT_TRUE(r.meta().fp);
    EXPECT_EQ(r.meta().seed, 0xdeadbeefcafeull);
    ASSERT_EQ(r.meta().regions.size(), 2u);
    EXPECT_EQ(r.meta().regions[1].base, 0x40000000u);
    EXPECT_EQ(r.meta().regions[1].bytes, 1u << 20);
    EXPECT_EQ(r.opCount(), 2u);

    std::vector<isa::MicroOp> block;
    ASSERT_TRUE(r.readBlock(block));
    ASSERT_EQ(block.size(), 2u);
    EXPECT_EQ(block[0], isa::makeLoad(8, 4, 0x1000, 0x100));
    EXPECT_EQ(block[1], isa::makeBranch(8, true, 0x100, 0x104));
    EXPECT_FALSE(r.readBlock(block));
}

TEST_F(TraceTest, TraceWorkloadServesRegionsForPrewarm)
{
    auto path = tracePath("regions");
    auto inner = wload::makeWorkload("swim");
    {
        CapturingWorkload capture(*inner, path, 1);
        for (int i = 0; i < 100; ++i)
            capture.next();
        capture.finish();
    }
    TraceWorkload replay(path);
    EXPECT_EQ(replay.name(), "swim");
    EXPECT_TRUE(replay.isFp());
    auto live_regions = wload::makeWorkload("swim")->regions();
    auto replay_regions = replay.regions();
    ASSERT_EQ(replay_regions.size(), live_regions.size());
    for (size_t i = 0; i < live_regions.size(); ++i) {
        EXPECT_EQ(replay_regions[i].base, live_regions[i].base);
        EXPECT_EQ(replay_regions[i].bytes, live_regions[i].bytes);
    }
}

// ------------------------------------- capture -> replay op identity

TEST_F(TraceTest, RoundTripAllPresets50k)
{
    constexpr size_t NumOps = 50000;
    for (const auto &prof : wload::allProfiles()) {
        auto path = tracePath("rt_" + prof.name);
        {
            wload::SyntheticWorkload live(prof);
            CapturingWorkload capture(live, path, prof.seed);
            // Mixed pull pattern: batches and single ops, like the
            // real front end around squashes.
            isa::MicroOp buf[64];
            size_t pulled = 0;
            while (pulled < NumOps) {
                if (pulled % 1000 < 3) {
                    capture.next();
                    ++pulled;
                } else {
                    size_t n =
                        std::min<size_t>(64, NumOps - pulled);
                    ASSERT_EQ(capture.nextBlock(buf, n), n);
                    pulled += n;
                }
            }
            capture.finish();
            EXPECT_EQ(capture.recorded(), NumOps);
        }
        wload::SyntheticWorkload reference(prof);
        TraceWorkload replay(path);
        EXPECT_EQ(replay.traceOps(), NumOps);
        for (size_t i = 0; i < NumOps; ++i) {
            ASSERT_EQ(replay.next(), reference.next())
                << prof.name << " diverges at op " << i;
        }
    }
}

TEST_F(TraceTest, ReplayNextBlockMatchesNext)
{
    auto path = tracePath("blocks");
    auto inner = wload::makeWorkload("mcf");
    {
        CapturingWorkload capture(*inner, path, 1);
        isa::MicroOp buf[128];
        for (int i = 0; i < 100; ++i)
            capture.nextBlock(buf, 128);
        capture.finish();
    }
    TraceWorkload a(path);
    TraceWorkload b(path);
    isa::MicroOp buf[97];
    for (int chunk = 0; chunk < 50; ++chunk) {
        ASSERT_EQ(b.nextBlock(buf, 97), 97u);
        for (int i = 0; i < 97; ++i)
            ASSERT_EQ(a.next(), buf[i]);
    }
}

TEST_F(TraceTest, EndlessWrapAndReset)
{
    auto path = tracePath("wrap");
    {
        Writer w(path, TraceMeta{});
        for (int i = 0; i < 100; ++i)
            w.append(isa::makeAlu(int16_t(i % 8), 1, 2,
                                  0x1000 + uint64_t(i) * 4));
        w.finish();
    }
    TraceWorkload wl(path);
    std::vector<isa::MicroOp> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(wl.next());
    // The stream wraps to the start, exactly like a reset.
    for (int lap = 0; lap < 2; ++lap)
        for (int i = 0; i < 100; ++i)
            ASSERT_EQ(wl.next(), first[size_t(i)]);
    wl.next(); // leave mid-stream
    wl.reset();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(wl.next(), first[size_t(i)]);
}

// ------------------------------------------- capture output pinned

TEST_F(TraceTest, CaptureOutputPinned)
{
    // The recorded bytes and the op stream handed through by
    // CapturingWorkload::nextBlock are pinned to FNV-1a 64 digests, so
    // any change to the generator or the encoder that alters a single
    // byte of a recording fails here, not in a downstream golden.
    struct Pin
    {
        const char *preset;
        uint64_t fileFnv;
        uint64_t streamFnv;
    };
    const Pin pins[] = {
        {"mcf", 0xb3932a02c1b80c63ull, 0x81b5eec3bec9dfadull},
        {"swim", 0x8addd5781b8b7154ull, 0x63524d85b67483d0ull},
        {"gcc", 0xabddc18deb92b841ull, 0xb7c8466a8ab5d4aaull},
    };
    constexpr size_t NumOps = 200000;
    for (const Pin &pin : pins) {
        auto path = tracePath(std::string("pin_") + pin.preset);
        auto inner = wload::makeWorkload(pin.preset);
        uint64_t stream = 0xcbf29ce484222325ull;
        {
            CapturingWorkload capture(*inner, path, 7);
            isa::MicroOp buf[256];
            for (size_t left = NumOps; left;) {
                size_t got =
                    capture.nextBlock(buf, std::min<size_t>(left, 256));
                for (size_t i = 0; i < got; ++i)
                    stream = fnvOp(buf[i], stream);
                left -= got;
            }
            capture.finish();
        }
        auto bytes = slurp(path);
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.fileFnv)
            << pin.preset << " trace file bytes changed";
        EXPECT_EQ(stream, pin.streamFnv)
            << pin.preset << " nextBlock op stream changed";
    }
}

TEST_F(TraceTest, MaximalRecordsRoundTripAcrossBlocks)
{
    // Worst case for the writer's fixed block buffer: every record
    // has the longest encoding its class allows. pc and effAddr swing
    // between two values ~2^63 apart (both also ~2^62 from the
    // block-start predictor value 0) and each branch target sits 2^63
    // past its pc, so every varint is 10 bytes. No class carries both
    // an address and a target, so a memory op is 4 + 10 + 10 + 1 = 25
    // bytes and a branch 4 + 10 + 10 = 24 — the longest real records
    // under the MaxRecordBytes = 35 bound. Blocks close mid-pattern,
    // so the last record of each block starts within one record of
    // BlockTargetBytes.
    constexpr uint64_t Lo = 0x4000000000000001ull;
    constexpr uint64_t Hi = 0xbfffffffffffffffull;
    constexpr size_t NumOps = 3 * BlockTargetBytes / 24;
    std::vector<isa::MicroOp> ops;
    size_t payload_bytes = 0, mem_ops = 0;
    for (size_t i = 0; i < NumOps; ++i) {
        const uint64_t pc = (i & 1) ? Hi : Lo;
        const uint64_t addr = (mem_ops & 1) ? Hi : Lo;
        isa::MicroOp op;
        switch (i % 3) {
          case 0:
            op = isa::makeLoad(int16_t(isa::NumRegs - 1), isa::NoReg,
                               addr, pc);
            op.memSize = 0xff;
            break;
          case 1:
            op = isa::makeStore(isa::NoReg, int16_t(isa::NumRegs - 1),
                                addr, pc);
            break;
          default:
            op = isa::makeBranch(isa::NoReg, true, pc + (1ull << 63),
                                 pc);
            break;
        }
        mem_ops += op.isMem() ? 1 : 0;
        payload_bytes += op.isMem() ? 25 : 24;
        ops.push_back(op);
    }

    auto empty = tracePath("max_empty");
    {
        Writer w(empty, TraceMeta{});
        w.finish();
    }
    auto path = tracePath("max");
    size_t blocks = 0;
    {
        Writer w(path, TraceMeta{});
        size_t in_block = 0;
        for (const auto &op : ops) {
            w.append(op);
            in_block += op.isMem() ? 25 : 24;
            if (in_block >= BlockTargetBytes) {
                ++blocks;
                in_block = 0;
            }
        }
        blocks += in_block ? 1 : 0;
        w.finish();
    }
    ASSERT_GE(blocks, 3u);
    // Header + 12-byte frame per block + payload: every record really
    // took its maximal encoding.
    EXPECT_EQ(slurp(path).size(),
              slurp(empty).size() + 12 * blocks + payload_bytes);

    Reader r(path);
    EXPECT_EQ(r.opCount(), NumOps);
    std::vector<isa::MicroOp> block, decoded;
    while (r.readBlock(block))
        decoded.insert(decoded.end(), block.begin(), block.end());
    ASSERT_EQ(decoded.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        ASSERT_EQ(decoded[i], ops[i]) << "record " << i;
}

// ------------------------------------ end-to-end simulator identity

TEST_F(TraceTest, SimulatorBitIdenticalLiveVsReplay)
{
    const sim::MachineConfig machines[] = {
        sim::MachineConfig::r10_64(),
        sim::MachineConfig::kilo1024(),
        sim::MachineConfig::dkip2048(),
    };
    const char *workloads[] = {"mcf", "swim"};
    auto rc = sim::RunConfig::sweep();

    for (const auto &machine : machines) {
        for (const char *name : workloads) {
            auto path = tracePath(std::string("e2e_") +
                                  machine.name + "_" + name);
            wload::SyntheticWorkload inner(
                wload::profileByName(name));
            CapturingWorkload capture(inner, path,
                                      inner.profile().seed);
            auto live = sim::Simulator::run(
                machine, capture, mem::MemConfig::mem400(), rc);
            capture.finish();

            auto replayed = sim::Simulator::run(
                machine, "trace:" + path, mem::MemConfig::mem400(),
                rc);

            // Byte-identical JSONL rows: cycles, committed, IPC and
            // every memory/MSHR stat agree exactly.
            EXPECT_EQ(sim::runResultJson(live),
                      sim::runResultJson(replayed))
                << machine.name << "/" << name;
        }
    }
}

TEST_F(TraceTest, SweepEngineRunsTraceNamedJobs)
{
    auto path = tracePath("sweepjob");
    {
        auto inner = wload::makeWorkload("gzip");
        CapturingWorkload capture(*inner, path, 1);
        auto rc = sim::RunConfig::sweep();
        sim::Simulator::run(sim::MachineConfig::r10_64(), capture,
                            mem::MemConfig::mem400(), rc);
        capture.finish();
    }
    sim::SweepEngine engine(1);
    auto jobs = sim::SweepEngine::matrix(
        {sim::MachineConfig::r10_64()}, {"trace:" + path},
        {mem::MemConfig::mem400()}, sim::RunConfig::sweep());
    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].workload, "gzip"); // from the trace header
    EXPECT_GT(results[0].ipc, 0.0);
}

// --------------------------------------------------- error handling

TEST_F(TraceTest, RejectsWrongMagic)
{
    auto path = tracePath("magic");
    std::ofstream(path, std::ios::binary) << "NOTATRACEFILE.......";
    EXPECT_THROW(Reader r(path), TraceError);
}

TEST_F(TraceTest, RejectsVersionMismatch)
{
    auto path = tracePath("version");
    {
        Writer w(path, TraceMeta{});
        w.append(isa::makeNop(0x1000));
        w.finish();
    }
    auto bytes = slurp(path);
    bytes[8] = char(FormatVersion + 1); // version field, LE low byte
    rewrite(path, bytes, bytes.size());
    try {
        Reader r(path);
        FAIL() << "version mismatch not detected";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST_F(TraceTest, RejectsWrappingPrewarmRegion)
{
    // base + bytes must fit in 64 bits; the error names the region.
    auto path = tracePath("wrap_region");
    TraceMeta meta;
    meta.regions = {{0x1000, 4096}, {~uint64_t(0) - 4095, 4096}};
    {
        Writer w(path, meta);
        w.append(isa::makeNop(0x1000));
        w.finish();
    }
    try {
        Reader r(path);
        FAIL() << "wrapping region not detected";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("region 1 wraps"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(TraceWorkload wl(path), TraceError);
}

TEST_F(TraceTest, HugeRegionThatDoesNotWrapIsCheapToPrewarm)
{
    // A 2^50-byte region and one ending at the last byte of the
    // address space are legal, and a Session over them constructs
    // at once: the prewarm costs the caches' size, not the region's.
    auto path = tracePath("huge_region");
    TraceMeta meta;
    meta.name = "huge";
    meta.regions = {{0x1000, uint64_t(1) << 50},
                    {~uint64_t(0) - 4095, 4095}};
    {
        Writer w(path, meta);
        for (int i = 0; i < 64; ++i)
            w.append(isa::makeLoad(8, 4, 0x1000 + 64 * i, 0x100));
        w.finish();
    }
    Reader r(path);
    ASSERT_EQ(r.meta().regions.size(), 2u);
    EXPECT_EQ(r.meta().regions[0].bytes, uint64_t(1) << 50);
    sim::Session session(sim::MachineConfig::dkip2048(),
                         "trace:" + path, mem::MemConfig::mem400());
    EXPECT_EQ(session.measuredCommitted(), 0u);
}

TEST_F(TraceTest, RejectsTruncatedHeader)
{
    auto path = tracePath("trunc_hdr");
    {
        Writer w(path, TraceMeta{});
        w.append(isa::makeNop(0x1000));
        w.finish();
    }
    auto bytes = slurp(path);
    rewrite(path, bytes, 15); // cut inside the header
    EXPECT_THROW(Reader r(path), TraceError);
}

TEST_F(TraceTest, RejectsTruncatedBlock)
{
    auto path = tracePath("trunc_blk");
    {
        Writer w(path, TraceMeta{});
        for (int i = 0; i < 1000; ++i)
            w.append(isa::makeLoad(8, 4, uint64_t(i) * 64, 0x1000));
        w.finish();
    }
    auto bytes = slurp(path);
    rewrite(path, bytes, bytes.size() - 100); // tear the block
    Reader r(path); // header still parses...
    EXPECT_EQ(r.opCount(), 1000u);
    std::vector<isa::MicroOp> block;
    EXPECT_THROW(r.readBlock(block), TraceError);
    // ...and the workload wrapper hits the same wall, not UB.
    EXPECT_THROW(TraceWorkload wl(path), TraceError);
}

TEST_F(TraceTest, RejectsMidBlockCorruption)
{
    auto path = tracePath("corrupt");
    {
        Writer w(path, TraceMeta{});
        for (int i = 0; i < 1000; ++i)
            w.append(isa::makeLoad(8, 4, uint64_t(i) * 64, 0x1000));
        w.finish();
    }
    auto bytes = slurp(path);
    bytes[bytes.size() - 200] ^= char(0x55); // flip bits mid-payload
    rewrite(path, bytes, bytes.size());
    Reader r(path);
    std::vector<isa::MicroOp> block;
    try {
        r.readBlock(block);
        FAIL() << "mid-block corruption not detected";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos);
    }
}

TEST_F(TraceTest, RejectsTruncationAtBlockBoundary)
{
    // A file cut exactly at a block frame boundary parses cleanly
    // block by block — only the header op count can expose it. The
    // replay must throw at the wrap instead of looping a plausible
    // but wrong prefix stream.
    auto path = tracePath("boundary");
    constexpr int NumOps = 20000; // > BlockTargetBytes: multi-block
    {
        Writer w(path, TraceMeta{});
        for (int i = 0; i < NumOps; ++i)
            w.append(isa::makeLoad(8, 4, uint64_t(i) * 64,
                                   0x1000 + uint64_t(i % 64) * 4));
        w.finish();
    }
    auto bytes = slurp(path);
    // Default TraceMeta header: magic 8 + version 4 + opcount 8 +
    // seed 8 + fp 1 + namelen 2 + "trace" 5 + nregions 4 = 40 bytes.
    constexpr size_t HeaderBytes = 40;
    uint32_t payload_len;
    std::memcpy(&payload_len, bytes.data() + HeaderBytes, 4);
    size_t block0_end = HeaderBytes + 12 + payload_len;
    ASSERT_LT(block0_end, bytes.size()); // really multi-block
    rewrite(path, bytes, block0_end);    // keep only block 0

    TraceWorkload wl(path); // block 0 loads fine...
    try {
        for (int i = 0; i < NumOps + 1; ++i)
            wl.next();
        FAIL() << "boundary truncation not detected at wrap";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
}

TEST_F(TraceTest, RejectsUnsealedTraceAtWrap)
{
    // A capture that crashed before finish() leaves the header op
    // count at the placeholder 0; the wrap check rejects it.
    auto path = tracePath("unsealed");
    {
        Writer w(path, TraceMeta{});
        for (int i = 0; i < 100; ++i)
            w.append(isa::makeNop(0x1000));
        w.finish();
    }
    auto bytes = slurp(path);
    for (int i = 0; i < 8; ++i)
        bytes[size_t(OpCountOffset) + i] = 0; // un-patch the count
    rewrite(path, bytes, bytes.size());
    TraceWorkload wl(path);
    EXPECT_THROW(
        {
            for (int i = 0; i < 101; ++i)
                wl.next();
        },
        TraceError);
}

TEST_F(TraceTest, RejectsEmptyTrace)
{
    auto path = tracePath("empty");
    {
        Writer w(path, TraceMeta{});
        w.finish(); // header only, zero blocks
    }
    EXPECT_THROW(TraceWorkload wl(path), TraceError);
}

TEST_F(TraceTest, RejectsMissingFile)
{
    EXPECT_THROW(Reader r("/nonexistent/path/to/trace.ktrc"),
                 TraceError);
}

TEST_F(TraceTest, RejectsUnmappablePath)
{
    // A directory or a FIFO opens read-only but cannot be mapped; the
    // reader names that cause (instead of a misleading header
    // truncation) and does not block waiting for a FIFO writer.
    auto fifo = tracePath("fifo");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    for (const std::string &path : {::testing::TempDir(), fifo}) {
        try {
            Reader r(path);
            FAIL() << "accepted as a trace: " << path;
        } catch (const TraceError &e) {
            EXPECT_NE(std::string(e.what()).find("cannot mmap"),
                      std::string::npos)
                << e.what();
        }
    }
}
