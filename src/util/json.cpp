#include "util/json.h"

#include <cctype>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace tsg {

namespace {

/// Appends `cp` encoded as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

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
    /// Consumes the four hex digits of a \u escape.
    std::uint32_t scan_hex4()
    {
        if (text.size() - pos < 4) fail("truncated \\u escape");
        std::uint32_t unit = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            unit <<= 4;
            if (c >= '0' && c <= '9')
                unit |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                unit |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                unit |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        return unit;
    }
    /// Consumes the rest of a \u escape (after the "\u") and returns its
    /// code point; a high surrogate must be followed by an escaped low one.
    std::uint32_t scan_code_point()
    {
        const std::uint32_t unit = scan_hex4();
        if (unit >= 0xDC00 && unit <= 0xDFFF) fail("unpaired low surrogate in \\u escape");
        if (unit < 0xD800 || unit > 0xDBFF) return unit;
        if (!take("\\u", 2)) fail("unpaired high surrogate in \\u escape");
        const std::uint32_t low = scan_hex4();
        if (low < 0xDC00 || low > 0xDFFF) fail("unpaired high surrogate in \\u escape");
        return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
    }
    /// Consumes a string and returns its decoded content.  Unknown escapes
    /// stand for the escaped character itself.
    std::string scan_string()
    {
        expect('"');
        std::string out;
        while (true) {
            const std::size_t special = text.find_first_of("\"\\", pos);
            if (special == std::string::npos) fail("unterminated string");
            out.append(text, pos, special - pos);
            pos = special + 1;
            if (text[special] == '"') return out;
            if (pos >= text.size()) fail("dangling escape");
            const char e = text[pos++];
            switch (e) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': append_utf8(out, scan_code_point()); break;
            default: out += e; break;
            }
        }
    }
};

/// Appends `s` as a JSON string literal's content.
void append_escaped(std::string& out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: {
            const char escape[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xF]};
            out.append(escape, sizeof escape);
            break;
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
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
                std::string key = in.scan_string();
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
        v.text = in.scan_string();
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

void write_value(json_writer& out, const json_value& v)
{
    switch (v.k) {
    case json_value::kind::null_v: out.raw("null"); break;
    case json_value::kind::bool_v: out.value(v.boolean); break;
    case json_value::kind::number_v: out.raw(v.text); break;
    case json_value::kind::string_v: out.value(v.text); break;
    case json_value::kind::array_v:
        out.begin_array();
        for (const json_value& item : v.items) write_value(out, item);
        out.end_array();
        break;
    case json_value::kind::object_v:
        out.begin_object();
        for (const auto& [name, member] : v.members) write_value(out.key(name), member);
        out.end_object();
        break;
    }
}

} // namespace

// --- json_value ---------------------------------------------------------------

const json_value* json_value::find(const std::string& key) const
{
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

json_value json_value::boolean_value(bool b)
{
    json_value v;
    v.k = kind::bool_v;
    v.boolean = b;
    return v;
}

json_value json_value::number(std::int64_t v) { return raw_number(std::to_string(v)); }

json_value json_value::number(std::uint64_t v) { return raw_number(std::to_string(v)); }

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
    json_writer out;
    write_value(out, *this);
    return out.take();
}

json_value json_parse(const std::string& text, const std::string& context)
{
    cursor in{text, context};
    json_value v = parse_value(in);
    in.skip_ws();
    if (in.pos != text.size()) in.fail("trailing garbage after the document");
    return v;
}

// --- json_writer --------------------------------------------------------------

void json_writer::separate()
{
    if (!after_key_ && !first_ && !closers_.empty()) out_ += ", ";
    after_key_ = false;
    first_ = false;
}

json_writer& json_writer::open(char opener, char closer)
{
    separate();
    out_ += opener;
    closers_ += closer;
    first_ = true;
    return *this;
}

json_writer& json_writer::close(char closer)
{
    ensure(!closers_.empty() && closers_.back() == closer && !after_key_,
           "json_writer: closing a scope that is not open (or a key without a value)");
    closers_.pop_back();
    out_ += closer;
    first_ = false; // the closed scope was an item of the enclosing one
    return *this;
}

json_writer& json_writer::key(std::string_view name)
{
    separate();
    out_ += '"';
    append_escaped(out_, name);
    out_ += "\": ";
    after_key_ = true;
    return *this;
}

json_writer& json_writer::value(std::string_view s)
{
    separate();
    out_ += '"';
    append_escaped(out_, s);
    out_ += '"';
    return *this;
}

json_writer& json_writer::value(double v)
{
    if (!std::isfinite(v)) return raw("null");
    return raw(format_double(v, 6));
}

json_writer& json_writer::raw(std::string_view spelling)
{
    separate();
    out_ += spelling;
    return *this;
}

std::string json_writer::take()
{
    ensure(closers_.empty() && !after_key_,
           "json_writer: taking a document whose scopes are still open");
    first_ = true;
    return std::exchange(out_, {});
}

std::string json_quote(const std::string& s) { return json_writer().value(s).take(); }

} // namespace tsg
