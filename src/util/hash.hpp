#pragma once

// Hash mixing for the block engine's bucket hash.

#include <cstdint>

namespace weakset {

/// Mixes a 64-bit value into a running hash (boost-style hash_combine with a
/// 64-bit golden-ratio constant).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace weakset
