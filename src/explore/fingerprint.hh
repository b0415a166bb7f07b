/**
 * @file
 * Stable 64-bit fingerprints for design-space memoization.
 *
 * The exploration engine memoizes simulation results on
 * (subset fingerprint, workload fingerprint) and synthesis results on
 * (subset fingerprint, technology fingerprint). Fingerprints must be
 * deterministic across threads and across runs so a plan that revisits
 * a point — or a bench binary that sweeps the same subset under many
 * technologies — pays for it exactly once.
 */

#ifndef RISSP_EXPLORE_FINGERPRINT_HH
#define RISSP_EXPLORE_FINGERPRINT_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "core/subset.hh"
#include "tech/technology.hh"

namespace rissp::explore
{

/** FNV-1a offset basis. */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Fold @p bytes into an FNV-1a running hash. */
inline uint64_t
fnv1a(const void *bytes, size_t len, uint64_t hash = kFnvBasis)
{
    const auto *p = static_cast<const uint8_t *>(bytes);
    for (size_t i = 0; i < len; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Fold a string (including a terminator so "ab","c" != "a","bc"). */
inline uint64_t
fnv1a(const std::string &s, uint64_t hash = kFnvBasis)
{
    hash = fnv1a(s.data(), s.size(), hash);
    const uint8_t sep = 0xff;
    return fnv1a(&sep, 1, hash);
}

/**
 * Subset fingerprint: one bit per Op. kNumOps is well under 64, so the
 * bitmask itself is a collision-free fingerprint.
 */
inline uint64_t
subsetFingerprint(const InstrSubset &subset)
{
    static_assert(kNumOps <= 64, "subset bitmask no longer fits");
    uint64_t mask = 0;
    for (Op op : subset.ops())
        mask |= 1ull << static_cast<unsigned>(op);
    return mask;
}

/** Workload fingerprint: name, source text and optimization level. */
inline uint64_t
workloadFingerprint(const std::string &name, const std::string &source,
                    uint8_t opt_level)
{
    uint64_t hash = fnv1a(name);
    hash = fnv1a(source, hash);
    return fnv1a(&opt_level, 1, hash);
}

/** Technology fingerprint over every model constant. Identity
 *  (name, description) is deliberately excluded: two names for the
 *  same constants produce the same results and may share cache
 *  entries, so the fingerprint hashes only the `TechParams` slice. */
inline uint64_t
techFingerprint(const TechParams &tech)
{
    // TechParams is a plain aggregate of doubles; hashing the object
    // representation captures any constant an override set.
    static_assert(std::is_trivially_copyable_v<TechParams>);
    unsigned char bytes[sizeof(TechParams)];
    std::memcpy(bytes, &tech, sizeof bytes);
    return fnv1a(bytes, sizeof bytes);
}

/** Key for caches keyed on two fingerprints. */
struct FingerprintPair
{
    uint64_t first = 0;
    uint64_t second = 0;

    bool operator==(const FingerprintPair &) const = default;
};

struct FingerprintPairHash
{
    size_t operator()(const FingerprintPair &k) const
    {
        // Splitmix-style combine; both halves are already hashes.
        uint64_t x = k.first + 0x9e3779b97f4a7c15ull * k.second;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        return static_cast<size_t>(x);
    }
};

} // namespace rissp::explore

#endif // RISSP_EXPLORE_FINGERPRINT_HH
