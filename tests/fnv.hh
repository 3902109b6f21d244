/**
 * @file
 * FNV-1a over a stream of integers, the hash the golden-output tests
 * record simulated results with.
 */

#ifndef STRAMASH_TESTS_FNV_HH
#define STRAMASH_TESTS_FNV_HH

#include <cstdint>
#include <string>

namespace stramash
{

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        for (char c : s)
            add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
};

} // namespace stramash

#endif // STRAMASH_TESTS_FNV_HH
