// Stable, seedable hash functions.
//
// Data-plane systems (Blink's flow selector, Bloom filters, FlowRadar's
// flowset encoding) index state arrays with hashes of packet fields. The
// attacks in the paper exploit the fact that these hashes are *public*
// (Kerckhoff's principle), so the implementations here are deliberately
// deterministic and well-specified: CRC32 (the hash programmable switches
// actually expose) and 64-bit FNV-1a, both with an optional seed so that a
// single structure can derive k independent hash functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace intox::net {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Matches the `hash` extern of
/// P4 targets. `seed` is folded into the initial remainder.
std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// 64-bit FNV-1a with seed mixed into the offset basis.
std::uint64_t fnv1a64(std::span<const std::byte> data, std::uint64_t seed = 0);

/// Convenience overload for trivially-copyable values.
template <typename T>
std::uint64_t fnv1a64_of(const T& value, std::uint64_t seed = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a64(std::as_bytes(std::span<const T, 1>{&value, 1}), seed);
}

/// SplitMix64 finalizer — a cheap, high-quality integer mixer used to
/// derive per-index hash functions and to scramble seeds.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace intox::net
