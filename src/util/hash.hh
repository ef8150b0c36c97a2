/**
 * @file
 * 64-bit FNV-1a, the one definition: journal fingerprints, retry
 * jitter seeds, the dedup LLC's content map and the approximate-dedup
 * signature all hash through here, so they stay bit-identical.
 */

#ifndef DOPP_UTIL_HASH_HH
#define DOPP_UTIL_HASH_HH

#include <string>

#include "util/types.hh"

namespace dopp
{

/** FNV-1a 64-bit offset basis: the hash of zero bytes. */
constexpr u64 fnv1a64Basis = 0xcbf29ce484222325ULL;

/** Fold one byte into running hash @p h. */
constexpr u64
fnv1a64Step(u64 h, u8 byte)
{
    return (h ^ byte) * 0x100000001b3ULL;
}

/** FNV-1a 64-bit hash of @p len bytes. */
inline u64
fnv1a64(const u8 *bytes, u64 len)
{
    u64 h = fnv1a64Basis;
    for (u64 i = 0; i < len; ++i)
        h = fnv1a64Step(h, bytes[i]);
    return h;
}

/** FNV-1a 64-bit hash of the bytes of @p s. */
inline u64
fnv1a64(const std::string &s)
{
    return fnv1a64(reinterpret_cast<const u8 *>(s.data()), s.size());
}

} // namespace dopp

#endif // DOPP_UTIL_HASH_HH
