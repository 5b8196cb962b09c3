// Minimal JSON document model and writer shared by every machine-readable
// surface.
//
// One recursive value type (json_value) and one recursive-descent parser
// serve the unified request/response codec (core/api.h), the edit-script
// parser and the service's NDJSON framing.  One streaming writer
// (json_writer) renders every document the library emits — the response
// envelope, every payload, and json_value::write() itself — in the one
// compact layout: a single line, ", " between items, ": " after keys.
// A payload is therefore written once, in its wire form, and the response
// envelope splices it in unchanged.  Scope is exactly what those surfaces
// need — in-memory strings, exact number spellings, insertion-ordered
// objects — not a general-purpose JSON library:
//
//   * numbers keep their raw spelling (text), so integer arc ids and exact
//     "num/den"-adjacent values never round-trip through double;
//   * object members preserve insertion order (find() is linear — the
//     documents here have a handful of keys);
//   * strings decode every JSON escape (\uXXXX to UTF-8, surrogate pairs
//     joined) and are written back with every byte below 0x20 escaped, so
//     parse(write(v)) == v and strict parsers accept what write() emits;
//   * parse errors throw tsg::error with a caller-supplied context prefix,
//     so "edit script: unexpected end of JSON" keeps naming the surface
//     the malformed text came from.
#ifndef TSG_UTIL_JSON_H
#define TSG_UTIL_JSON_H

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
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

    [[nodiscard]] static json_value boolean_value(bool b);
    [[nodiscard]] static json_value number(std::int64_t v);
    [[nodiscard]] static json_value number(std::uint64_t v);
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

    /// The json_writer rendering; parse(write()) == *this.
    [[nodiscard]] std::string write() const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// `context` prefixes every diagnostic ("json", "edit script", "request").
[[nodiscard]] json_value json_parse(const std::string& text,
                                    const std::string& context = "json");

/// Streams one JSON document in the compact layout: every item after the
/// first of an object or array is preceded by ", ", and every key is
/// followed by ": ".  Closing a scope that is not the innermost open one,
/// or taking a document whose scopes are still open, is an ensure failure.
class json_writer {
public:
    json_writer& begin_object() { return open('{', '}'); }
    json_writer& end_object() { return close('}'); }
    json_writer& begin_array() { return open('[', ']'); }
    json_writer& end_array() { return close(']'); }

    /// An object member's key; the next value written is its value.
    json_writer& key(std::string_view name);

    /// A string, escaped: ", \ and \n, \t, \r by name, every other byte
    /// below 0x20 as \u00XX.
    json_writer& value(std::string_view s);
    json_writer& value(const char* s) { return value(std::string_view(s)); }
    json_writer& value(bool b) { return raw(b ? "true" : "false"); }

    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    json_writer& value(T v)
    {
        char buffer[24];
        const char* end = std::to_chars(buffer, buffer + sizeof buffer, v).ptr;
        return raw(std::string_view(buffer, static_cast<std::size_t>(end - buffer)));
    }

    /// format_double(v, 6); NaN and infinities as null (JSON has no
    /// literal for them).
    json_writer& value(double v);

    template <typename T>
    json_writer& value(const std::vector<T>& values)
    {
        begin_array();
        for (const T& v : values) value(v);
        return end_array();
    }

    /// A value spelled exactly as given: an exact number spelling, null, or
    /// a complete document from another json_writer.
    json_writer& raw(std::string_view spelling);

    /// Sizes the buffer once, for a writer about to splice a large payload.
    json_writer& reserve(std::size_t bytes) { out_.reserve(bytes); return *this; }

    /// The finished document; the writer is left empty.
    [[nodiscard]] std::string take();

private:
    void separate(); ///< writes the separator the next item needs
    json_writer& open(char opener, char closer);
    json_writer& close(char closer);

    std::string out_;
    std::string closers_;    ///< one per open scope, innermost last
    bool first_ = true;      ///< the innermost scope has no item yet
    bool after_key_ = false; ///< a key is waiting for its value
};

/// Quotes and escapes a string for embedding in a JSON document.
[[nodiscard]] std::string json_quote(const std::string& s);

} // namespace tsg

#endif // TSG_UTIL_JSON_H
