#include "util/status.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace star {

namespace detail {
void assert_fail(const char* expr, const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "STAR_ASSERT failed: %s\n  at %s:%d\n  %s\n", expr, file, line,
               msg.c_str());
  std::abort();
}

void require_fail(std::string_view message) {
  throw InvalidArgument(std::string(message));
}
}  // namespace detail

std::string expected_got(std::string_view what, long long expected, long long got) {
  std::ostringstream os;
  os << what << ": expected " << expected << ", got " << got;
  return os.str();
}

}  // namespace star
