// Error types shared by the whole library.
//
// User-facing failures (malformed input, model-property violations that the
// caller can provoke with bad data) throw tsg::error.  Violated internal
// invariants throw tsg::internal_error; encountering one is a library bug.
#ifndef TSG_UTIL_ERROR_H
#define TSG_UTIL_ERROR_H

#include <stdexcept>
#include <string>

namespace tsg {

/// Base class for every exception thrown by the library on bad input or
/// violated model properties (non-live graph, non-distributive circuit, ...).
class error : public std::runtime_error {
public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an internal invariant of the library fails; indicates a bug
/// in the library itself, never in caller-supplied data.
class internal_error : public std::logic_error {
public:
    explicit internal_error(const std::string& what) : std::logic_error(what) {}
};

/// Throws tsg::error with `message` unless `condition` holds.
///
/// The const char* overloads let a literal message pass without building a
/// std::string: a check that holds costs one branch.  A message assembled
/// from parts is built before the call even when the check holds, so
/// per-element hot paths spell such checks `if (!cond) throw error(...)`.
inline void require(bool condition, const char* message)
{
    if (!condition) throw error(message);
}

inline void require(bool condition, const std::string& message)
{
    if (!condition) throw error(message);
}

/// Throws tsg::internal_error with `message` unless `condition` holds.
inline void ensure(bool condition, const char* message)
{
    if (!condition) throw internal_error(message);
}

inline void ensure(bool condition, const std::string& message)
{
    if (!condition) throw internal_error(message);
}

} // namespace tsg

/// Debug-only bounds/invariant check for hot-path accessors: full require()
/// diagnostics in debug builds, unchecked indexing in release (NDEBUG)
/// builds where the graph sweeps dominate the profile.
#ifndef NDEBUG
#define TSG_DCHECK(condition, message) ::tsg::require((condition), (message))
#else
#define TSG_DCHECK(condition, message) ((void)0)
#endif

#endif // TSG_UTIL_ERROR_H
