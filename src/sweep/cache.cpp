#include "sweep/cache.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <span>

#include "net/hash.hpp"

namespace intox::sweep {

namespace {

std::span<const std::byte> bytes_of(const std::string& s) {
  return std::as_bytes(std::span<const char>{s.data(), s.size()});
}

/// Two independent 64-bit FNV streams make the 128-bit address; the
/// seeds only need to differ, not be secret (the cache is a performance
/// structure, not a security boundary).
constexpr std::uint64_t kSeedLo = 0x73776565702d6c6fULL;  // "sweep-lo"
constexpr std::uint64_t kSeedHi = 0x73776565702d6869ULL;  // "sweep-hi"

}  // namespace

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::uint64_t binary_fingerprint() {
  std::FILE* f = std::fopen("/proc/self/exe", "rb");
  if (f == nullptr) return 0;
  std::uint64_t h = net::fnv1a64({}, kSeedLo);
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    h = net::fnv1a64(std::as_bytes(std::span<const char>{buf, n}), h);
  }
  std::fclose(f);
  return h;
}

CacheKey point_cache_key(
    std::uint64_t binary_fp, const std::string& scenario,
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  // Canonical pre-image: newline-framed fields. Knob names cannot
  // contain '\n' or '=' (declared as C++ literals), and each value is
  // length-prefixed, so the framing holds for any value text: without
  // that, ("a", "b\nc=d") would collide with ("a","b"),("c","d").
  std::string pre;
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(binary_fp));
  pre += fp;
  pre += '\n';
  pre += scenario;
  pre += '\n';
  for (const auto& [name, value] : knobs) {
    char len[24];
    std::snprintf(len, sizeof len, "%zu", value.size());
    pre += name;
    pre += '=';
    pre += len;
    pre += ':';
    pre += value;
    pre += '\n';
  }
  return CacheKey{net::fnv1a64(bytes_of(pre), kSeedLo),
                  net::fnv1a64(bytes_of(pre), kSeedHi)};
}

std::string PointCache::ensure_dir() const {
  // mkdir -p: walk the path creating each missing component.
  std::string partial;
  partial.reserve(dir_.size());
  for (std::size_t i = 0; i <= dir_.size(); ++i) {
    if (i < dir_.size() && dir_[i] != '/') {
      partial += dir_[i];
      continue;
    }
    if (i < dir_.size()) partial += '/';
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
      return "cannot create cache directory '" + partial +
             "': " + std::strerror(errno);
    }
  }
  return "";
}

std::string PointCache::record_path(const CacheKey& key) const {
  return dir_ + "/" + key.hex() + ".json";
}

std::string PointCache::log_path(const CacheKey& key) const {
  return dir_ + "/" + key.hex() + ".log";
}

std::string PointCache::dump_path(const CacheKey& key) const {
  return dir_ + "/" + key.hex() + ".flightrec.json";
}

bool PointCache::has(const CacheKey& key) const {
  struct stat st{};
  return ::stat(record_path(key).c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace intox::sweep
