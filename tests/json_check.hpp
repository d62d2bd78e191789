#pragma once

// A tiny self-contained JSON well-formedness checker, shared by the tests
// that read the library's JSON output (chrome traces, advise reports).
// Validates the grammar (objects, arrays, strings, numbers, literals) so the
// exported documents are guaranteed loadable by chrome://tracing and
// json.load; a raw control character inside a string is rejected, as RFC
// 8259 requires it escaped.

#include <cctype>
#include <string>

namespace cumb_tests {

namespace json_detail {

// Each parser returns the position after the parsed value, or npos on error.
inline std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

std::size_t parse_value(const std::string& s, std::size_t i);

inline std::size_t parse_string(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  for (++i; i < s.size(); ++i) {
    if (static_cast<unsigned char>(s[i]) < 0x20) return std::string::npos;
    if (s[i] == '\\') {
      ++i;
      continue;
    }
    if (s[i] == '"') return i + 1;
  }
  return std::string::npos;
}

inline std::size_t parse_object(const std::string& s, std::size_t i) {
  ++i;  // '{'
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == '}') return i + 1;
  while (i < s.size()) {
    i = parse_string(s, skip_ws(s, i));
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return std::string::npos;
    i = parse_value(s, i + 1);
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') { ++i; continue; }
    if (i < s.size() && s[i] == '}') return i + 1;
    return std::string::npos;
  }
  return std::string::npos;
}

inline std::size_t parse_array(const std::string& s, std::size_t i) {
  ++i;  // '['
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == ']') return i + 1;
  while (i < s.size()) {
    i = parse_value(s, i);
    if (i == std::string::npos) return i;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') { ++i; continue; }
    if (i < s.size() && s[i] == ']') return i + 1;
    return std::string::npos;
  }
  return std::string::npos;
}

inline std::size_t parse_value(const std::string& s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) return std::string::npos;
  if (s[i] == '{') return parse_object(s, i);
  if (s[i] == '[') return parse_array(s, i);
  if (s[i] == '"') return parse_string(s, i);
  if (s.compare(i, 4, "true") == 0) return i + 4;
  if (s.compare(i, 5, "false") == 0) return i + 5;
  if (s.compare(i, 4, "null") == 0) return i + 4;
  std::size_t j = i;
  if (j < s.size() && (s[j] == '-' || s[j] == '+')) ++j;
  std::size_t digits = j;
  while (j < s.size() && (std::isdigit(static_cast<unsigned char>(s[j])) ||
                          s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
                          s[j] == '-' || s[j] == '+'))
    ++j;
  return j > digits ? j : std::string::npos;
}

}  // namespace json_detail

inline bool json_well_formed(const std::string& s) {
  std::size_t end = json_detail::parse_value(s, 0);
  return end != std::string::npos && json_detail::skip_ws(s, end) == s.size();
}

}  // namespace cumb_tests
