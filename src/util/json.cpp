#include "util/json.h"

#include <cctype>
#include <cmath>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace tsg {

namespace {

/// Reading position over one document.  Every check throws only when it
/// fails: the diagnostic strings are built on the error path, never per
/// token.
struct cursor {
    const std::string& text;
    const std::string& context;
    std::size_t pos = 0;

    [[noreturn]] void fail(const char* what) const { throw error(context + ": " + what); }

    void skip_ws()
    {
        while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }
    char peek()
    {
        skip_ws();
        if (pos >= text.size()) fail("unexpected end of JSON");
        return text[pos];
    }
    void expect(char c)
    {
        if (peek() != c)
            throw error(context + ": expected '" + std::string(1, c) + "' at offset " +
                        std::to_string(pos));
        ++pos;
    }
    /// Consumes `word` when the text continues with it.
    bool take(const char* word, std::size_t length)
    {
        if (text.compare(pos, length, word) != 0) return false;
        pos += length;
        return true;
    }
    /// Consumes a number and returns where its raw spelling starts: the
    /// longest run of digits and "+-.eE" (spelling checks are the
    /// consumer's business).
    std::size_t scan_number()
    {
        const std::size_t start = pos;
        while (pos < text.size()) {
            const char c = text[pos];
            if (!std::isdigit(static_cast<unsigned char>(c)) && c != '+' && c != '-' &&
                c != '.' && c != 'e' && c != 'E')
                break;
            ++pos;
        }
        if (pos == start) fail("malformed JSON value");
        return start;
    }
    /// Consumes a string, handing each decoded character to `emit`.
    /// \n, \t and \r decode to their control characters; any other escaped
    /// character stands for itself (so \" \\ \/ decode as usual, and \u0041
    /// decodes to "u0041").
    template <typename Emit>
    void scan_string(Emit&& emit)
    {
        expect('"');
        while (true) {
            if (pos >= text.size()) fail("unterminated string");
            const char c = text[pos++];
            if (c == '"') return;
            if (c != '\\') {
                emit(c);
                continue;
            }
            if (pos >= text.size()) fail("dangling escape");
            const char e = text[pos++];
            switch (e) {
            case 'n': emit('\n'); break;
            case 't': emit('\t'); break;
            case 'r': emit('\r'); break;
            default: emit(e); break;
            }
        }
    }
};

/// Appends `c` as json_quote spells it inside a string literal.
void append_escaped(std::string& out, char c)
{
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    case '\r': out += "\\r"; break;
    default: out += c; break;
    }
}

std::string parse_string(cursor& in)
{
    std::string out;
    in.scan_string([&](char c) { out += c; });
    return out;
}

json_value parse_value(cursor& in)
{
    json_value v;
    const char c = in.peek();
    if (c == '{') {
        in.expect('{');
        v.k = json_value::kind::object_v;
        if (in.peek() != '}') {
            while (true) {
                std::string key = parse_string(in);
                in.expect(':');
                v.members.emplace_back(std::move(key), parse_value(in));
                if (in.peek() != ',') break;
                in.expect(',');
            }
        }
        in.expect('}');
        return v;
    }
    if (c == '[') {
        in.expect('[');
        v.k = json_value::kind::array_v;
        if (in.peek() != ']') {
            while (true) {
                v.items.push_back(parse_value(in));
                if (in.peek() != ',') break;
                in.expect(',');
            }
        }
        in.expect(']');
        return v;
    }
    if (c == '"') {
        v.k = json_value::kind::string_v;
        v.text = parse_string(in);
        return v;
    }
    if (in.take("true", 4)) {
        v.k = json_value::kind::bool_v;
        v.boolean = true;
        return v;
    }
    if (in.take("false", 5)) {
        v.k = json_value::kind::bool_v;
        return v;
    }
    if (in.take("null", 4)) return v;
    const std::size_t start = in.scan_number();
    v.k = json_value::kind::number_v;
    v.text = in.text.substr(start, in.pos - start);
    return v;
}

/// Writes the string at the cursor as write() re-quotes its decoded text.
void compact_string(cursor& in, std::string& out)
{
    out += '"';
    in.scan_string([&](char c) { append_escaped(out, c); });
    out += '"';
}

/// parse_value() and write() fused: the same grammar walked in the same
/// order (so the same diagnostics), appending the compact rendering
/// instead of building nodes.
void compact_value(cursor& in, std::string& out)
{
    const char c = in.peek();
    if (c == '{') {
        in.expect('{');
        out += '{';
        if (in.peek() != '}') {
            while (true) {
                compact_string(in, out);
                in.expect(':');
                out += ": ";
                compact_value(in, out);
                if (in.peek() != ',') break;
                in.expect(',');
                out += ", ";
            }
        }
        in.expect('}');
        out += '}';
        return;
    }
    if (c == '[') {
        in.expect('[');
        out += '[';
        if (in.peek() != ']') {
            while (true) {
                compact_value(in, out);
                if (in.peek() != ',') break;
                in.expect(',');
                out += ", ";
            }
        }
        in.expect(']');
        out += ']';
        return;
    }
    if (c == '"') {
        compact_string(in, out);
        return;
    }
    if (in.take("true", 4)) {
        out += "true";
        return;
    }
    if (in.take("false", 5)) {
        out += "false";
        return;
    }
    if (in.take("null", 4)) {
        out += "null";
        return;
    }
    const std::size_t start = in.scan_number();
    out.append(in.text, start, in.pos - start);
}

} // namespace

const json_value* json_value::find(const std::string& key) const
{
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

json_value json_value::null() { return {}; }

json_value json_value::boolean_value(bool b)
{
    json_value v;
    v.k = kind::bool_v;
    v.boolean = b;
    return v;
}

json_value json_value::number(std::int64_t v) { return raw_number(std::to_string(v)); }

json_value json_value::number(std::uint64_t v) { return raw_number(std::to_string(v)); }

json_value json_value::number(double v, int decimals)
{
    if (!std::isfinite(v)) return null(); // JSON has no inf/nan literal
    return raw_number(format_double(v, decimals));
}

json_value json_value::raw_number(std::string spelling)
{
    json_value v;
    v.k = kind::number_v;
    v.text = std::move(spelling);
    return v;
}

json_value json_value::string(std::string s)
{
    json_value v;
    v.k = kind::string_v;
    v.text = std::move(s);
    return v;
}

json_value json_value::array()
{
    json_value v;
    v.k = kind::array_v;
    return v;
}

json_value json_value::object()
{
    json_value v;
    v.k = kind::object_v;
    return v;
}

json_value& json_value::set(std::string key, json_value v)
{
    members.emplace_back(std::move(key), std::move(v));
    return members.back().second;
}

json_value& json_value::push(json_value v)
{
    items.push_back(std::move(v));
    return items.back();
}

bool json_value::operator==(const json_value& other) const
{
    if (k != other.k) return false;
    switch (k) {
    case kind::null_v: return true;
    case kind::bool_v: return boolean == other.boolean;
    case kind::number_v:
    case kind::string_v: return text == other.text;
    case kind::array_v: return items == other.items;
    case kind::object_v: return members == other.members;
    }
    return false;
}

std::string json_value::write() const
{
    std::ostringstream os;
    switch (k) {
    case kind::null_v: os << "null"; break;
    case kind::bool_v: os << (boolean ? "true" : "false"); break;
    case kind::number_v: os << text; break;
    case kind::string_v: os << json_quote(text); break;
    case kind::array_v: {
        os << '[';
        for (std::size_t i = 0; i < items.size(); ++i)
            os << (i ? ", " : "") << items[i].write();
        os << ']';
        break;
    }
    case kind::object_v: {
        os << '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
            os << (i ? ", " : "") << json_quote(members[i].first) << ": "
               << members[i].second.write();
        }
        os << '}';
        break;
    }
    }
    return os.str();
}

json_value json_parse(const std::string& text, const std::string& context)
{
    cursor in{text, context};
    json_value v = parse_value(in);
    in.skip_ws();
    if (in.pos != text.size()) in.fail("trailing garbage after the document");
    return v;
}

std::string json_compact(const std::string& text, const std::string& context)
{
    cursor in{text, context};
    std::string out;
    out.reserve(text.size());
    compact_value(in, out);
    in.skip_ws();
    if (in.pos != text.size()) in.fail("trailing garbage after the document");
    return out;
}

std::string json_quote(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) append_escaped(out, c);
    out += '"';
    return out;
}

} // namespace tsg
