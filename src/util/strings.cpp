#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.h"

namespace tsg {

std::string trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
    return std::string(text.substr(begin, end - begin));
}

std::vector<std::string> split(std::string_view text, std::string_view separators)
{
    std::vector<std::string> pieces;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        const bool at_sep = i == text.size() || separators.find(text[i]) != std::string_view::npos;
        if (at_sep) {
            if (i > start) pieces.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return pieces;
}

std::string join(const std::vector<std::string>& pieces, std::string_view separator)
{
    std::string out;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (i > 0) out += separator;
        out += pieces[i];
    }
    return out;
}

bool starts_with(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    std::string out(buffer);
    if (out.find('.') != std::string::npos) {
        while (!out.empty() && out.back() == '0') out.pop_back();
        if (!out.empty() && out.back() == '.') out.pop_back();
    }
    return out;
}

std::uint64_t parse_count(const std::string& flag, const std::string& text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    require(ec == std::errc{} && end == last && value <= max,
            flag + " needs a whole number from 0 to " + std::to_string(max) + ", got '" +
                text + "'");
    return value;
}

double parse_rate(const std::string& flag, const std::string& text)
{
    // Validate the shape first: from_chars alone also takes a sign, an
    // exponent, inf and nan.  digits_from returns npos when none follow.
    const auto digits_from = [&](std::size_t i) {
        const std::size_t start = i;
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
        return i > start ? i : std::string::npos;
    };
    std::size_t end = digits_from(0);
    if (end < text.size() && text[end] == '.') end = digits_from(end + 1);
    double value = 0.0;
    require(end == text.size() &&
                std::from_chars(text.data(), text.data() + text.size(), value).ec ==
                    std::errc{},
            flag + " needs a non-negative decimal number, got '" + text + "'");
    return value;
}

} // namespace tsg
