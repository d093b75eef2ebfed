/**
 * @file
 * Mutation fuzzing of the KILOTRC decoder (the robustness guarantee
 * src/trace/trace_reader.hh documents): every single-bit flip and
 * every truncation of a valid trace file must either raise
 * trace::TraceError or decode to exactly the original op stream —
 * never crash, never silently decode wrong ops. The reader decodes
 * straight out of the file mapping, so the CI sanitizer job runs this
 * suite under ASan/UBSan, which turns any out-of-bounds decode the
 * validation misses into a hard failure.
 *
 * Mutations are generated with a fixed LCG, so a failure reproduces
 * from the test name and iteration number alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/trace/trace_writer.hh"
#include "src/wload/synthetic.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::trace;

namespace
{

/** Deterministic 64-bit LCG (MMIX constants). */
class Lcg
{
  public:
    explicit Lcg(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 16;
    }

  private:
    uint64_t state;
};

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes,
     size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), long(std::min(n, bytes.size())));
}

/** What one mutated file did. */
enum class Outcome
{
    Rejected,   ///< TraceError raised (construction or decode)
    Identical,  ///< decoded op-for-op equal to the pristine trace
    Wrong,      ///< decoded without error but not the original ops
};

/**
 * Replay @p path as a TraceWorkload and compare one full pass against
 * @p original, then force one op past the end so the wrap-time
 * truncation check runs (a file cut at an exact block boundary
 * decodes cleanly but must be caught there). Only TraceError counts
 * as rejection; any other exception propagates and fails the test.
 */
Outcome
checkMutant(const std::string &path,
            const std::vector<isa::MicroOp> &original)
{
    try {
        TraceWorkload wl(path);
        std::vector<isa::MicroOp> got(original.size());
        size_t n = 0;
        while (n < got.size()) {
            size_t want = std::min<size_t>(256, got.size() - n);
            size_t step = wl.nextBlock(got.data() + n, want);
            if (step == 0)
                return Outcome::Wrong;  // stream ended early
        // (contract: endless)
            n += step;
        }
        wl.next();  // crosses EOF -> wrap, validating the op count
        return got == original ? Outcome::Identical : Outcome::Wrong;
    } catch (const TraceError &) {
        return Outcome::Rejected;
    }
}

/** Fuzz corpus entry: a sealed trace plus its decoded ground truth. */
struct Corpus
{
    std::string path;
    std::vector<char> bytes;
    std::vector<isa::MicroOp> ops;
};

class TraceFuzzTest : public ::testing::Test
{
  protected:
    std::string
    fuzzPath(const std::string &tag)
    {
        std::string p = ::testing::TempDir() + "kilo_fuzz_" + tag +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() + ".ktrc";
        files.push_back(p);
        return p;
    }

    /** Record @p n_ops of workload @p name into a fresh trace. */
    Corpus
    record(const std::string &name, uint64_t n_ops)
    {
        Corpus c;
        c.path = fuzzPath(name);
        auto inner = wload::makeWorkload(name);
        {
            CapturingWorkload capture(*inner, c.path, 42);
            isa::MicroOp buf[256];
            uint64_t left = n_ops;
            while (left) {
                size_t got = capture.nextBlock(
                    buf, size_t(std::min<uint64_t>(left, 256)));
                left -= got;
            }
            capture.finish();
        }
        c.bytes = slurp(c.path);
        Reader r(c.path);
        std::vector<isa::MicroOp> block;
        while (r.readBlock(block))
            c.ops.insert(c.ops.end(), block.begin(), block.end());
        EXPECT_EQ(c.ops.size(), n_ops);
        return c;
    }

    void
    TearDown() override
    {
        for (const auto &f : files)
            std::remove(f.c_str());
    }

    std::vector<std::string> files;
};

} // anonymous namespace

// ---------------------------------------------------------- sanity

TEST_F(TraceFuzzTest, PristineCorpusDecodesIdentically)
{
    Corpus c = record("mcf", 20000);
    EXPECT_EQ(checkMutant(c.path, c.ops), Outcome::Identical);
}

// --------------------------------------------------------- bit flips

TEST_F(TraceFuzzTest, SingleBitFlipsNeverDecodeWrong)
{
    Corpus c = record("mcf", 20000);
    Lcg lcg(0x5eedull);
    int rejected = 0, identical = 0;
    const int kFlips = 256;
    for (int i = 0; i < kFlips; ++i) {
        size_t pos = size_t(lcg.next() % c.bytes.size());
        int bit = int(lcg.next() % 8);
        std::vector<char> mutated = c.bytes;
        mutated[pos] = char(mutated[pos] ^ (1 << bit));
        spit(c.path, mutated, mutated.size());
        SCOPED_TRACE("flip " + std::to_string(i) + " byte " +
                     std::to_string(pos) + " bit " +
                     std::to_string(bit));
        Outcome out = checkMutant(c.path, c.ops);
        EXPECT_NE(out, Outcome::Wrong);
        (out == Outcome::Rejected ? rejected : identical)++;
    }
    // The corpus is mostly checksummed payload, so the vast majority
    // of flips must be *detected* — a fuzzer whose mutants all pass
    // is not exercising the validators.
    EXPECT_GT(rejected, identical);
    spit(c.path, c.bytes, c.bytes.size());  // restore
}

TEST_F(TraceFuzzTest, HeaderBitFlipsAreRejectedOrHarmless)
{
    // Dense coverage of every bit of the first 64 bytes: magic,
    // version, op count and metadata framing live here.
    Corpus c = record("swim", 4096);
    size_t span = std::min<size_t>(64, c.bytes.size());
    for (size_t pos = 0; pos < span; ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<char> mutated = c.bytes;
            mutated[pos] = char(mutated[pos] ^ (1 << bit));
            spit(c.path, mutated, mutated.size());
            SCOPED_TRACE("byte " + std::to_string(pos) + " bit " +
                         std::to_string(bit));
            EXPECT_NE(checkMutant(c.path, c.ops), Outcome::Wrong);
        }
    }
    spit(c.path, c.bytes, c.bytes.size());
}

// ------------------------------------------------------- truncations

TEST_F(TraceFuzzTest, TruncationsNeverDecodeWrong)
{
    Corpus c = record("mcf", 20000);
    Lcg lcg(0xc0ffeeull);

    std::vector<size_t> cuts;
    for (size_t n = 0; n <= 32 && n < c.bytes.size(); ++n)
        cuts.push_back(n);             // empty + partial header
    for (int i = 0; i < 48; ++i)       // random interior cuts
        cuts.push_back(size_t(lcg.next() % c.bytes.size()));
    cuts.push_back(c.bytes.size() - 1);
    cuts.push_back(c.bytes.size() - 7);

    for (size_t cut : cuts) {
        spit(c.path, c.bytes, cut);
        SCOPED_TRACE("cut at " + std::to_string(cut));
        // A shortened file can never serve the full op stream:
        // anything but TraceError is a silent wrong decode.
        EXPECT_EQ(checkMutant(c.path, c.ops), Outcome::Rejected);
    }
    spit(c.path, c.bytes, c.bytes.size());
}

// -------------------------------------------------- appended garbage

TEST_F(TraceFuzzTest, TrailingGarbageIsRejectedOrIgnoredSafely)
{
    Corpus c = record("swim", 4096);
    Lcg lcg(0xbadc0deull);
    for (size_t extra : {size_t(1), size_t(7), size_t(64)}) {
        std::vector<char> mutated = c.bytes;
        for (size_t i = 0; i < extra; ++i)
            mutated.push_back(char(lcg.next() & 0xff));
        spit(c.path, mutated, mutated.size());
        SCOPED_TRACE("extra " + std::to_string(extra));
        EXPECT_NE(checkMutant(c.path, c.ops), Outcome::Wrong);
    }
    spit(c.path, c.bytes, c.bytes.size());
}
