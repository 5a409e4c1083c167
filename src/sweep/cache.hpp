// Content-addressed point cache: the resume half of `intox sweep`.
//
// A completed sweep point is stored as one record file whose name is a
// 128-bit hash of everything that determines the point's output:
//   * the driver binary (fingerprint of /proc/self/exe), so a rebuilt
//     binary never reuses stale results,
//   * the scenario name, and
//   * the fully resolved knob vector (every knob, canonical rendering),
//     which already folds in --set / --config / the point's own values
//     and the seed knob.
// Presence of the file *is* completion: records are committed by
// write-temp-then-rename (obs::write_point_record), so a worker killed
// mid-point leaves only a stray .tmp — never a partial record under the
// final name. An interrupted sweep resumes by rescanning for missing
// keys and re-running exactly those points.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace intox::sweep {

/// 128-bit content address, rendered as 32 lowercase hex digits.
struct CacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  [[nodiscard]] std::string hex() const;
};

/// FNV-1a over this process's own binary image (/proc/self/exe).
/// Returns 0 when the image cannot be read (non-procfs platforms); the
/// cache then degrades to knob-vector addressing for this process.
std::uint64_t binary_fingerprint();

/// The content address of one point: binary fingerprint + scenario +
/// the resolved (name, value) knob vector in declaration order.
CacheKey point_cache_key(
    std::uint64_t binary_fp, const std::string& scenario,
    const std::vector<std::pair<std::string, std::string>>& knobs);

/// Filesystem layout of one cache directory:
///   <dir>/<key>.json            committed point records
///   <dir>/<key>.log             the producing worker's stderr
///   <dir>/<key>.flightrec.json  the worker's crash dump, if it crashed
class PointCache {
 public:
  explicit PointCache(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Creates the cache directory (and missing parents). Returns empty
  /// on success, else the diagnostic.
  [[nodiscard]] std::string ensure_dir() const;

  [[nodiscard]] std::string record_path(const CacheKey& key) const;
  [[nodiscard]] std::string log_path(const CacheKey& key) const;
  [[nodiscard]] std::string dump_path(const CacheKey& key) const;

  /// True when a committed record exists for `key`.
  [[nodiscard]] bool has(const CacheKey& key) const;

 private:
  std::string dir_;
};

}  // namespace intox::sweep
