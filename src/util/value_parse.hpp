// Scalar <-> string conversions shared by the spec key-value layer (config
// parsing, serialization, sweep-axis overrides). Formatting uses the
// shortest round-tripping representation (std::to_chars), so
// parse(format(x)) == x bit for bit — the property the spec round-trip
// tests pin.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

namespace dtn::util {

/// Outcome of applying one key = value assignment to a parameter block.
enum class KvResult { kOk, kUnknownKey, kBadValue };

inline bool parse_value(const std::string& text, double& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, std::int64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, std::uint64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

inline bool parse_value(const std::string& text, int& out) {
  std::int64_t wide = 0;
  if (!parse_value(text, wide)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) return false;
  out = static_cast<int>(wide);
  return true;
}

inline bool parse_value(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

/// One registry `key = value` assignment into a typed field: kOk on
/// success, kBadValue when the text does not parse as the field's type
/// (the shared body of every registry's set() hook). Declared after every
/// parse_value overload so ordinary lookup finds them all.
template <typename T>
KvResult kv_set(T& field, const std::string& value) {
  T parsed{};
  if (!parse_value(value, parsed)) return KvResult::kBadValue;
  field = parsed;
  return KvResult::kOk;
}

inline std::string format_value(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(std::int64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(std::uint64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

inline std::string format_value(int v) { return format_value(static_cast<std::int64_t>(v)); }

inline std::string format_value(bool v) { return v ? "true" : "false"; }

/// C99 hexfloat (%a) text of `v` and its strict inverse: the exact bit
/// pattern survives, which journal replay and remote assignments rely on.
inline std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline bool parse_hex_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  out = v;
  return true;
}

}  // namespace dtn::util
