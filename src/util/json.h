// Minimal JSON document model shared by every machine-readable surface.
//
// One recursive value type (json_value), one recursive-descent parser and
// one writer serve the unified request/response codec (core/api.h), the
// edit-script parser and the service's NDJSON framing; json_compact() runs
// parser and writer as one pass for documents that are only passed
// through (response payloads).  Scope is exactly
// what those surfaces need — in-memory strings, exact number spellings,
// insertion-ordered objects — not a general-purpose JSON library:
//
//   * numbers keep their raw spelling (text), so integer arc ids and exact
//     "num/den"-adjacent values never round-trip through double;
//   * object members preserve insertion order (find() is linear — the
//     documents here have a handful of keys);
//   * write() emits a compact single-line rendering whose re-parse
//     reproduces the value exactly (the NDJSON framing guarantee);
//   * parse errors throw tsg::error with a caller-supplied context prefix,
//     so "edit script: unexpected end of JSON" keeps naming the surface
//     the malformed text came from.
#ifndef TSG_UTIL_JSON_H
#define TSG_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tsg {

struct json_value {
    enum class kind : std::uint8_t { null_v, bool_v, number_v, string_v, array_v, object_v };

    kind k = kind::null_v;
    bool boolean = false;
    std::string text; ///< raw number spelling, or decoded string content
    std::vector<json_value> items;                          ///< array elements
    std::vector<std::pair<std::string, json_value>> members; ///< object, insertion order

    /// First member with this key, or nullptr.
    [[nodiscard]] const json_value* find(const std::string& key) const;

    // --- builders ----------------------------------------------------------

    [[nodiscard]] static json_value null();
    [[nodiscard]] static json_value boolean_value(bool b);
    [[nodiscard]] static json_value number(std::int64_t v);
    [[nodiscard]] static json_value number(std::uint64_t v);
    [[nodiscard]] static json_value number(double v, int decimals = 6); ///< non-finite -> null
    /// A number from its exact raw spelling (caller guarantees validity).
    [[nodiscard]] static json_value raw_number(std::string spelling);
    [[nodiscard]] static json_value string(std::string s);
    [[nodiscard]] static json_value array();
    [[nodiscard]] static json_value object();

    /// Appends an object member (no duplicate-key check) and returns it.
    json_value& set(std::string key, json_value v);

    /// Appends an array element and returns it.
    json_value& push(json_value v);

    /// Structural equality: same kind, same decoded strings, numbers by raw
    /// spelling, objects by ordered member list.  The identity relation of
    /// the codec round-trip tests.
    [[nodiscard]] bool operator==(const json_value& other) const;

    /// Compact single-line rendering; parse(write()) == *this.
    [[nodiscard]] std::string write() const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// `context` prefixes every diagnostic ("json", "edit script", "request").
[[nodiscard]] json_value json_parse(const std::string& text,
                                    const std::string& context = "json");

/// json_parse(text, context).write() in one validating pass that builds
/// no tree: the same grammar, the same string decoding and re-quoting (an
/// escaped '/' comes out as "/", an escaped "u0041" as "u0041"), raw
/// number spellings, and the same diagnostics for the same malformed
/// input.
[[nodiscard]] std::string json_compact(const std::string& text,
                                       const std::string& context = "json");

/// Quotes and escapes a string for embedding in a JSON document.
[[nodiscard]] std::string json_quote(const std::string& s);

} // namespace tsg

#endif // TSG_UTIL_JSON_H
