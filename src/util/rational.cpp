#include "util/rational.h"

#include <cmath>
#include <ostream>

namespace tsg {

rational rational::from_double(double x, std::int64_t max_den)
{
    require(std::isfinite(x), "rational::from_double: non-finite value");
    require(max_den >= 1, "rational::from_double: max_den must be positive");

    // Continued-fraction (Stern-Brocot) approximation.
    const bool negative = x < 0;
    double v = negative ? -x : x;

    std::int64_t p0 = 0, q0 = 1; // previous convergent
    std::int64_t p1 = 1, q1 = 0; // current convergent
    double frac = v;
    for (int iter = 0; iter < 64; ++iter) {
        const double fl = std::floor(frac);
        if (fl > static_cast<double>(INT64_MAX / 2)) break;
        const auto a = static_cast<std::int64_t>(fl);
        const std::int64_t p2 = a * p1 + p0;
        const std::int64_t q2 = a * q1 + q0;
        if (q2 > max_den) break;
        p0 = p1; q0 = q1;
        p1 = p2; q1 = q2;
        const double rem = frac - fl;
        if (rem < 1e-15) break;
        frac = 1.0 / rem;
    }
    if (q1 == 0) return rational(0);
    rational r(negative ? -p1 : p1, q1);
    return r;
}

rational rational::parse(const std::string& text)
{
    require(!text.empty(), "rational::parse: empty string");
    std::size_t slash = text.find('/');
    try {
        if (slash == std::string::npos) {
            std::size_t used = 0;
            const std::int64_t n = std::stoll(text, &used);
            if (used != text.size())
                throw error("rational::parse: trailing junk in '" + text + "'");
            return rational(n);
        }
        std::size_t used_n = 0;
        std::size_t used_d = 0;
        const std::string num_text = text.substr(0, slash);
        const std::string den_text = text.substr(slash + 1);
        if (num_text.empty() || den_text.empty())
            throw error("rational::parse: malformed '" + text + "'");
        const std::int64_t n = std::stoll(num_text, &used_n);
        const std::int64_t d = std::stoll(den_text, &used_d);
        if (used_n != num_text.size() || used_d != den_text.size())
            throw error("rational::parse: trailing junk in '" + text + "'");
        return rational(n, d);
    } catch (const std::invalid_argument&) {
        throw error("rational::parse: not a number: '" + text + "'");
    } catch (const std::out_of_range&) {
        throw error("rational::parse: out of range: '" + text + "'");
    }
}

std::string rational::str() const
{
    if (den_ == 1) return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const rational& r)
{
    return os << r.str();
}

} // namespace tsg
