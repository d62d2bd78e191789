#pragma once

// Deterministic JSON emission: the library's one JSON writer. Grade
// verdicts, serve reports, the vgpu-prof and vgpu-multi chrome traces, the
// vgpu-advise report and the selfperf bench file are all written with it.
// It lives in the base vgpu library; the grade/ path is historical.
//
// A verdict must be byte-identical across VGPU_THREADS and across releases
// for the same simulated run, so the writer leaves nothing to locale or
// printf rounding: strings are escaped per RFC 8259, integers print exactly,
// and doubles use std::to_chars shortest-round-trip form (the unique minimal
// decimal that parses back to the same bits). Non-finite doubles — which a
// broken submission can produce in max_error — render as null, the only
// JSON-legal spelling.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vgpu::grade {

/// RFC 8259 string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Shortest round-trip decimal for `v`; "null" when not finite.
std::string json_number(double v);

/// Streaming writer with 2-space pretty printing. Keys inside one object are
/// emitted in call order — callers own the (fixed) field order that makes
/// verdicts diffable.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& null();
  /// Splice a pre-rendered JSON document in value position, verbatim. The
  /// caller owns its validity (vgpu-serve embeds whole verdict/bench blobs
  /// inside its report this way). Multi-line fragments keep their own
  /// internal indentation; only the insertion point is positioned.
  JsonWriter& raw(std::string_view json);

  /// Shorthand: key(k) followed by value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The finished document (call after the root container is closed).
  std::string str() const { return out_; }

 private:
  enum class Ctx : unsigned char { kObject, kArray };
  void before_value();
  void newline_indent();

  std::string out_;
  std::vector<Ctx> stack_;
  std::vector<bool> has_items_;
  bool pending_key_ = false;
};

}  // namespace vgpu::grade
