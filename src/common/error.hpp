// Error-checking helpers: precondition checks that stay on in release
// builds. HPC codes die loudly on contract violations instead of limping on
// with corrupt state.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace bwlab {

/// Exception thrown on any violated bwlab precondition/invariant.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Throws the check's message, which is what a user of a tool reads; a
/// check without one names its expression and source file (base name
/// only, so the text does not depend on where the binary was built).
[[noreturn]] inline void fail(const char* expr, const char* file, int line,
                              const std::string& msg) {
  if (!msg.empty()) throw Error(msg);
  std::ostringstream os;
  os << "bwlab check failed: (" << expr << ") at " << file << ":" << line;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace bwlab

#ifdef __FILE_NAME__
#define BWLAB_FILE_NAME __FILE_NAME__
#else
#define BWLAB_FILE_NAME __FILE__
#endif

/// Always-on contract check. Usage: BWLAB_REQUIRE(n > 0, "n=" << n);
#define BWLAB_REQUIRE(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream bwlab_os_;                                   \
      bwlab_os_ << msg; /* NOLINT */                                  \
      ::bwlab::detail::fail(#expr, BWLAB_FILE_NAME, __LINE__,         \
                            bwlab_os_.str());                         \
    }                                                                 \
  } while (0)
