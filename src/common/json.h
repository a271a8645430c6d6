// JSON string escaping shared by every hand-written JSON emitter (metrics
// export, degradation reports, serve stats, the request log).
#pragma once

#include <string>

namespace wlc::common {

/// Escapes `s` for use inside a JSON string literal: `"` and `\` get a
/// backslash, \n \t \r their short forms, and every other byte below 0x20
/// becomes \u00XX. Bytes ≥ 0x20 (UTF-8 included) pass through unchanged.
inline std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace wlc::common
