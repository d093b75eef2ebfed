#include "src/ckpt/serial.hh"

#include <cstdio>

namespace kilo::ckpt
{

void
expectEq(uint64_t got, uint64_t want, const char *what)
{
    if (got != want) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "checkpoint mismatch: %s is %llu, expected %llu",
                      what, (unsigned long long)got,
                      (unsigned long long)want);
        throw CheckpointError(buf);
    }
}

void
expectAtMost(uint64_t got, uint64_t cap, const char *what)
{
    if (got > cap) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "checkpoint mismatch: %s is %llu, capacity %llu",
                      what, (unsigned long long)got,
                      (unsigned long long)cap);
        throw CheckpointError(buf);
    }
}

uint64_t
fnv1a(const uint8_t *p, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeCheckpointFile(const std::string &path,
                    const std::vector<uint8_t> &payload)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw CheckpointError("cannot open checkpoint file for "
                              "writing: " + path);
    uint32_t version = FileVersion;
    uint64_t size = payload.size();
    uint64_t checksum = fnv1a(payload.data(), payload.size());
    bool ok = std::fwrite(FileMagic, 1, sizeof(FileMagic), f) ==
                  sizeof(FileMagic) &&
              std::fwrite(&version, 1, sizeof(version), f) ==
                  sizeof(version) &&
              std::fwrite(&size, 1, sizeof(size), f) == sizeof(size) &&
              std::fwrite(&checksum, 1, sizeof(checksum), f) ==
                  sizeof(checksum) &&
              (payload.empty() ||
               std::fwrite(payload.data(), 1, payload.size(), f) ==
                   payload.size());
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw CheckpointError("short write to checkpoint file: " +
                              path);
}

std::vector<uint8_t>
readCheckpointFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw CheckpointError("cannot open checkpoint file: " + path);
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{f};

    char magic[sizeof(FileMagic)];
    uint32_t version = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
        std::memcmp(magic, FileMagic, sizeof(magic)) != 0)
        throw CheckpointError("not a KILOCKPT file: " + path);
    if (std::fread(&version, 1, sizeof(version), f) != sizeof(version))
        throw CheckpointError("truncated KILOCKPT header: " + path);
    if (version != FileVersion) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "KILOCKPT version %u not supported (this build "
                      "reads version %u)",
                      version, FileVersion);
        throw CheckpointError(buf);
    }
    if (std::fread(&size, 1, sizeof(size), f) != sizeof(size) ||
        std::fread(&checksum, 1, sizeof(checksum), f) !=
            sizeof(checksum))
        throw CheckpointError("truncated KILOCKPT header: " + path);

    std::vector<uint8_t> payload;
    payload.resize(size_t(size));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) !=
            payload.size())
        throw CheckpointError("truncated KILOCKPT payload: " + path);
    if (fnv1a(payload.data(), payload.size()) != checksum)
        throw CheckpointError("KILOCKPT checksum mismatch "
                              "(corrupt file): " + path);
    return payload;
}

} // namespace kilo::ckpt
