// Shared helpers of the benchmark driver: host timers, resident-set size,
// nearest-rank quantiles, a flat JSON object writer and a stable digest.

#ifndef UDR_PERFBENCH_COMMON_H_
#define UDR_PERFBENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set of this process in bytes (from /proc/self/statm).
inline int64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// FNV-1a 64-bit digest, printed as 16 hex digits.
inline std::string Digest(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Builds one JSON object; keys are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  JsonObject& StrList(const std::string& key,
                      const std::vector<std::string>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(values[i]);
    }
    return Raw(key, out + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // UDR_PERFBENCH_COMMON_H_
