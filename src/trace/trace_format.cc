#include "src/trace/trace_format.hh"

#include <bit>
#include <cstring>

namespace kilo::trace
{

uint32_t
blockChecksum(const uint8_t *data, size_t size)
{
    // Word-at-a-time xor-rotate-multiply mix (FNV constants). A
    // byte-serial FNV would put a dependent multiply on every payload
    // byte, costing more than the record decode itself.
    uint64_t h = 0xcbf29ce484222325ull ^ size;
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t w;
        std::memcpy(&w, data + i, 8);
        h = (std::rotl(h, 5) ^ w) * 0x00000100000001b3ull;
    }
    if (i < size) {
        uint64_t tail = 0;
        std::memcpy(&tail, data + i, size - i);
        h = (std::rotl(h, 5) ^ tail) * 0x00000100000001b3ull;
    }
    return uint32_t(h ^ (h >> 32));
}

} // namespace kilo::trace
