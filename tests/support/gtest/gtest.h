// Minimal single-header GoogleTest-compatible shim.
//
// Used only when system GoogleTest is not installed (see the top-level
// CMakeLists.txt), so the suite never depends on a network fetch. Covers
// exactly the surface the STAR tests use:
//
//   TEST / TEST_F / TEST_P + TestWithParam<T> + INSTANTIATE_TEST_SUITE_P
//   testing::Values / testing::Combine
//   EXPECT_/ASSERT_ {EQ, NE, LT, LE, GT, GE, TRUE, FALSE, NEAR, DOUBLE_EQ}
//   EXPECT_THROW / EXPECT_NO_THROW / EXPECT_DEATH (POSIX fork-based;
//   the "regex" argument is matched as a plain substring)
//   SCOPED_TRACE / testing::Test::HasFatalFailure() / FAIL() / GTEST_SKIP()
//
// Semantics follow gtest: EXPECT_* records the failure and continues,
// ASSERT_* returns from the enclosing function, both support streaming
// extra context with operator<<. An ASSERT_* failure in a helper returns
// from the helper only; HasFatalFailure() tells its caller. Every failure
// prints the messages of the SCOPED_TRACEs in scope, innermost first.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define GTEST_SHIM_HAS_DEATH_TESTS 1
#endif

namespace testing {

class Message {
 public:
  template <typename T>
  Message& operator<<(const T& value) {
    ss_ << value;
    return *this;
  }
  Message& operator<<(const Message& other) {
    ss_ << other.str();
    return *this;
  }
  [[nodiscard]] std::string str() const { return ss_.str(); }

 private:
  std::ostringstream ss_;
};

namespace internal {

struct TestCase {
  std::string suite;
  std::string name;
  std::function<void()> body;
};

struct Registry {
  static Registry& get() {
    static Registry r;
    return r;
  }
  std::vector<TestCase> tests;
  bool current_failed = false;
  bool current_fatal = false;  ///< an ASSERT_* failed in the current test
  bool current_skipped = false;  ///< the current test ran GTEST_SKIP()
  std::vector<std::string> traces;  ///< SCOPED_TRACE messages, outermost first
  int failed_tests = 0;

  static bool add(std::string suite, std::string name, std::function<void()> body) {
    get().tests.push_back({std::move(suite), std::move(name), std::move(body)});
    return true;
  }
};

inline void ReportFailure(const char* file, int line, const std::string& summary,
                          const std::string& user_msg, bool fatal = false) {
  Registry& reg = Registry::get();
  reg.current_failed = true;
  reg.current_fatal = reg.current_fatal || fatal;
  std::printf("%s:%d: Failure\n%s\n", file, line, summary.c_str());
  if (!user_msg.empty()) {
    std::printf("%s\n", user_msg.c_str());
  }
  if (!reg.traces.empty()) {
    std::printf("Google Test trace:\n");
    for (auto it = reg.traces.rbegin(); it != reg.traces.rend(); ++it) {
      std::printf("%s\n", it->c_str());
    }
  }
}

/// Consumes a streamed Message at the failure site; `operator=` makes the
/// whole `helper = Message() << ...` expression void so ASSERT_* can
/// `return` it (gtest's own trick).
class AssertHelper {
 public:
  AssertHelper(const char* file, int line, std::string summary, bool fatal = false)
      : file_(file), line_(line), summary_(std::move(summary)), fatal_(fatal) {}
  void operator=(const Message& m) const {
    ReportFailure(file_, line_, summary_, m.str(), fatal_);
  }

 private:
  const char* file_;
  int line_;
  std::string summary_;
  bool fatal_;
};

/// Consumes GTEST_SKIP()'s streamed message; the test stops and reads as
/// skipped, not failed.
class SkipHelper {
 public:
  SkipHelper(const char* file, int line) : file_(file), line_(line) {}
  void operator=(const Message& m) const {
    Registry::get().current_skipped = true;
    std::printf("%s:%d: Skipped\n%s\n", file_, line_, m.str().c_str());
  }

 private:
  const char* file_;
  int line_;
};

/// One SCOPED_TRACE: its message is on the trace stack while it lives.
class ScopedTrace {
 public:
  ScopedTrace(const char* file, int line, const std::string& message) {
    Registry::get().traces.push_back(std::string(file) + ":" + std::to_string(line) +
                                     ": " + message);
  }
  ~ScopedTrace() { Registry::get().traces.pop_back(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

template <typename T, typename = void>
struct IsStreamable : std::false_type {};
template <typename T>
struct IsStreamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                            << std::declval<const T&>())>>
    : std::true_type {};

template <typename T>
std::string PrintValue(const T& v) {
  if constexpr (IsStreamable<T>::value) {
    std::ostringstream os;
    os << v;
    return os.str();
  } else {
    return "<unprintable value>";
  }
}

template <typename A, typename B>
std::string PrintValue(const std::pair<A, B>& p) {
  return "(" + PrintValue(p.first) + ", " + PrintValue(p.second) + ")";
}

template <typename... Ts>
std::string PrintValue(const std::tuple<Ts...>& t) {
  std::string out = "(";
  bool first = true;
  std::apply(
      [&](const auto&... v) {
        ((out += (first ? "" : ", ") + PrintValue(v), first = false), ...);
      },
      t);
  return out + ")";
}

/// nullptr on success, failure text otherwise. Evaluates operands once.
template <typename A, typename B, typename Cmp>
std::unique_ptr<std::string> CheckCmp(const A& a, const B& b, Cmp cmp,
                                      const char* a_expr, const char* b_expr,
                                      const char* op) {
  if (cmp(a, b)) {
    return nullptr;
  }
  return std::make_unique<std::string>(
      std::string("Expected: (") + a_expr + ") " + op + " (" + b_expr +
      "), actual: " + PrintValue(a) + " vs " + PrintValue(b));
}

inline std::unique_ptr<std::string> CheckBool(bool value, bool expected,
                                              const char* expr) {
  if (value == expected) {
    return nullptr;
  }
  return std::make_unique<std::string>(std::string("Value of: ") + expr +
                                       "\n  Actual: " + (value ? "true" : "false") +
                                       "\nExpected: " + (expected ? "true" : "false"));
}

template <typename A, typename B, typename Tol>
std::unique_ptr<std::string> CheckNear(const A& a, const B& b, const Tol& tol,
                                       const char* a_expr, const char* b_expr) {
  const double da = static_cast<double>(a);
  const double db = static_cast<double>(b);
  if (std::fabs(da - db) <= static_cast<double>(tol)) {
    return nullptr;
  }
  std::ostringstream os;
  os.precision(17);
  os << "The difference between " << a_expr << " and " << b_expr << " is "
     << std::fabs(da - db) << ", which exceeds the tolerance, where\n"
     << a_expr << " evaluates to " << da << " and " << b_expr << " evaluates to "
     << db;
  return std::make_unique<std::string>(os.str());
}

/// gtest's almost-equal: within 4 ULPs (or bitwise equal, covering +-0 and
/// exact matches; NaNs never compare equal).
inline bool DoubleAlmostEqual(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return false;
  }
  if (a == b) {
    return true;
  }
  std::uint64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  // Map the sign-magnitude representation onto a monotonic unsigned line.
  const auto biased = [](std::uint64_t u) {
    constexpr std::uint64_t sign = 0x8000000000000000ULL;
    return (u & sign) ? ~u + 1 : u | sign;
  };
  const std::uint64_t ba = biased(ia), bb = biased(ib);
  return (ba > bb ? ba - bb : bb - ba) <= 4;
}

template <typename A, typename B>
std::unique_ptr<std::string> CheckDoubleEq(const A& a, const B& b, const char* a_expr,
                                           const char* b_expr) {
  if (DoubleAlmostEqual(static_cast<double>(a), static_cast<double>(b))) {
    return nullptr;
  }
  std::ostringstream os;
  os.precision(17);
  os << "Expected equality (4 ULP) of " << a_expr << " and " << b_expr << ", actual: "
     << static_cast<double>(a) << " vs " << static_cast<double>(b);
  return std::make_unique<std::string>(os.str());
}

}  // namespace internal

class Test {
 public:
  virtual ~Test() = default;
  virtual void SetUp() {}
  virtual void TearDown() {}
  virtual void TestBody() = 0;
  void Run() {
    SetUp();
    TestBody();
    TearDown();
  }
  /// True once an ASSERT_* has failed in the running test, in whatever
  /// function it ran.
  static bool HasFatalFailure() { return internal::Registry::get().current_fatal; }
};

template <typename T>
class TestWithParam : public Test {
 public:
  using ParamType = T;
  [[nodiscard]] const ParamType& GetParam() const { return *current_param_; }
  static void SetParam(const ParamType* p) { current_param_ = p; }

 private:
  static inline const ParamType* current_param_ = nullptr;
};

// ---------------------------------------------------------------- params

namespace internal {

template <typename... Ts>
struct ValuesGen {
  std::tuple<Ts...> vals;
  template <typename P>
  [[nodiscard]] std::vector<P> materialize() const {
    std::vector<P> out;
    out.reserve(sizeof...(Ts));
    std::apply([&](const auto&... v) { (out.push_back(static_cast<P>(v)), ...); },
               vals);
    return out;
  }
};

template <typename P, typename Lists, std::size_t I = 0>
void CartesianFill(const Lists& lists, P& cur, std::vector<P>& out) {
  if constexpr (I == std::tuple_size_v<P>) {
    out.push_back(cur);
  } else {
    for (const auto& v : std::get<I>(lists)) {
      std::get<I>(cur) = v;
      CartesianFill<P, Lists, I + 1>(lists, cur, out);
    }
  }
}

template <typename... Gens>
struct CombineGen {
  std::tuple<Gens...> gens;

  template <typename P, std::size_t... Is>
  [[nodiscard]] std::vector<P> materialize_impl(std::index_sequence<Is...>) const {
    auto lists = std::make_tuple(
        std::get<Is>(gens).template materialize<std::tuple_element_t<Is, P>>()...);
    std::vector<P> out;
    P cur{};
    CartesianFill(lists, cur, out);
    return out;
  }

  template <typename P>
  [[nodiscard]] std::vector<P> materialize() const {
    return materialize_impl<P>(std::index_sequence_for<Gens...>{});
  }
};

template <typename Suite>
struct ParamTestRegistry {
  static ParamTestRegistry& get() {
    static ParamTestRegistry r;
    return r;
  }
  std::vector<std::pair<std::string,
                        std::function<void(const typename Suite::ParamType&)>>>
      tests;
};

template <typename Suite>
bool RegisterParamTest(const char* name,
                       std::function<void(const typename Suite::ParamType&)> fn) {
  ParamTestRegistry<Suite>::get().tests.emplace_back(name, std::move(fn));
  return true;
}

template <typename Suite, typename Gen>
bool InstantiateParamSuite(const char* prefix, const char* suite, const Gen& gen) {
  using P = typename Suite::ParamType;
  auto params = std::make_shared<std::vector<P>>(gen.template materialize<P>());
  for (const auto& [name, fn] : ParamTestRegistry<Suite>::get().tests) {
    for (std::size_t i = 0; i < params->size(); ++i) {
      Registry::add(std::string(prefix) + "/" + suite,
                    name + "/" + std::to_string(i),
                    [params, fn, i] { fn((*params)[i]); });
    }
  }
  return true;
}

}  // namespace internal

template <typename... Ts>
internal::ValuesGen<std::decay_t<Ts>...> Values(Ts&&... vals) {
  return {std::make_tuple(std::forward<Ts>(vals)...)};
}

template <typename... Gens>
internal::CombineGen<std::decay_t<Gens>...> Combine(Gens&&... gens) {
  return {std::make_tuple(std::forward<Gens>(gens)...)};
}

inline void InitGoogleTest(int*, char**) {}
inline void InitGoogleTest() {}

}  // namespace testing

inline int RUN_ALL_TESTS() {
  auto& reg = ::testing::internal::Registry::get();
  std::printf("[==========] Running %zu tests (gtest shim).\n", reg.tests.size());
  for (const auto& t : reg.tests) {
    const std::string full = t.suite + "." + t.name;
    std::printf("[ RUN      ] %s\n", full.c_str());
    reg.current_failed = false;
    reg.current_fatal = false;
    reg.current_skipped = false;
    reg.traces.clear();
    try {
      t.body();
    } catch (const std::exception& e) {
      ::testing::internal::ReportFailure("<unknown>", 0,
                                         std::string("Unexpected exception: ") +
                                             e.what(),
                                         "");
    } catch (...) {
      ::testing::internal::ReportFailure("<unknown>", 0,
                                         "Unexpected non-std exception", "");
    }
    if (reg.current_failed) {
      ++reg.failed_tests;
      std::printf("[  FAILED  ] %s\n", full.c_str());
    } else if (reg.current_skipped) {
      std::printf("[  SKIPPED ] %s\n", full.c_str());
    } else {
      std::printf("[       OK ] %s\n", full.c_str());
    }
  }
  if (reg.failed_tests == 0) {
    std::printf("[  PASSED  ] %zu tests.\n", reg.tests.size());
    return 0;
  }
  std::printf("[  FAILED  ] %d of %zu tests.\n", reg.failed_tests, reg.tests.size());
  return 1;
}

// ---------------------------------------------------------------- macros

#define GTEST_SHIM_AMBIGUOUS_ELSE_ \
  switch (0)                       \
  case 0:                          \
  default:

#define GTEST_SHIM_CLASS_(suite, name) suite##_##name##_Test

#define GTEST_SHIM_TEST_IMPL_(suite, name, base)                                \
  class GTEST_SHIM_CLASS_(suite, name) : public base {                          \
   public:                                                                      \
    void TestBody() override;                                                   \
  };                                                                            \
  static const bool gtest_shim_reg_##suite##_##name =                           \
      ::testing::internal::Registry::add(#suite, #name, [] {                    \
        GTEST_SHIM_CLASS_(suite, name) t;                                       \
        t.Run();                                                                \
      });                                                                       \
  void GTEST_SHIM_CLASS_(suite, name)::TestBody()

#define TEST(suite, name) GTEST_SHIM_TEST_IMPL_(suite, name, ::testing::Test)
#define TEST_F(fixture, name) GTEST_SHIM_TEST_IMPL_(fixture, name, fixture)

#define TEST_P(suite, name)                                                     \
  class GTEST_SHIM_CLASS_(suite, name) : public suite {                         \
   public:                                                                      \
    void TestBody() override;                                                   \
  };                                                                            \
  static const bool gtest_shim_preg_##suite##_##name =                          \
      ::testing::internal::RegisterParamTest<suite>(                            \
          #name, [](const typename suite::ParamType& p) {                       \
            suite::SetParam(&p);                                                \
            GTEST_SHIM_CLASS_(suite, name) t;                                   \
            t.Run();                                                            \
          });                                                                   \
  void GTEST_SHIM_CLASS_(suite, name)::TestBody()

#define INSTANTIATE_TEST_SUITE_P(prefix, suite, ...)                            \
  static const bool gtest_shim_inst_##prefix##_##suite =                        \
      ::testing::internal::InstantiateParamSuite<suite>(#prefix, #suite,        \
                                                        (__VA_ARGS__))

// `check` must yield std::unique_ptr<std::string> (null = pass). `fatal`
// is false for EXPECT_* (fatal_kw empty) and true for ASSERT_* (fatal_kw
// `return`).
#define GTEST_SHIM_CHECK_(check, fatal_kw, fatal)                               \
  GTEST_SHIM_AMBIGUOUS_ELSE_                                                    \
  if (const auto gtest_shim_fail = (check); !gtest_shim_fail)                   \
    ;                                                                           \
  else                                                                          \
    fatal_kw ::testing::internal::AssertHelper(__FILE__, __LINE__,              \
                                               *gtest_shim_fail, fatal) =       \
        ::testing::Message()
#define GTEST_SHIM_EXPECT_(check) GTEST_SHIM_CHECK_(check, , false)
#define GTEST_SHIM_ASSERT_(check) GTEST_SHIM_CHECK_(check, return, true)

#define GTEST_SHIM_CMP_(a, b, op)                                               \
  ::testing::internal::CheckCmp(                                                \
      (a), (b), [](const auto& x, const auto& y) { return x op y; }, #a, #b, #op)

#define EXPECT_EQ(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, ==))
#define EXPECT_NE(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, !=))
#define EXPECT_LT(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, <))
#define EXPECT_LE(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, <=))
#define EXPECT_GT(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, >))
#define EXPECT_GE(a, b) GTEST_SHIM_EXPECT_(GTEST_SHIM_CMP_(a, b, >=))
#define ASSERT_EQ(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, ==))
#define ASSERT_NE(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, !=))
#define ASSERT_LT(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, <))
#define ASSERT_LE(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, <=))
#define ASSERT_GT(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, >))
#define ASSERT_GE(a, b) GTEST_SHIM_ASSERT_(GTEST_SHIM_CMP_(a, b, >=))

#define EXPECT_TRUE(x) \
  GTEST_SHIM_EXPECT_(::testing::internal::CheckBool(static_cast<bool>(x), true, #x))
#define EXPECT_FALSE(x) \
  GTEST_SHIM_EXPECT_(::testing::internal::CheckBool(static_cast<bool>(x), false, #x))
#define ASSERT_TRUE(x) \
  GTEST_SHIM_ASSERT_(::testing::internal::CheckBool(static_cast<bool>(x), true, #x))
#define ASSERT_FALSE(x) \
  GTEST_SHIM_ASSERT_(::testing::internal::CheckBool(static_cast<bool>(x), false, #x))

#define EXPECT_NEAR(a, b, tol) \
  GTEST_SHIM_EXPECT_(::testing::internal::CheckNear((a), (b), (tol), #a, #b))
#define ASSERT_NEAR(a, b, tol) \
  GTEST_SHIM_ASSERT_(::testing::internal::CheckNear((a), (b), (tol), #a, #b))
#define EXPECT_DOUBLE_EQ(a, b) \
  GTEST_SHIM_EXPECT_(::testing::internal::CheckDoubleEq((a), (b), #a, #b))
#define ASSERT_DOUBLE_EQ(a, b) \
  GTEST_SHIM_ASSERT_(::testing::internal::CheckDoubleEq((a), (b), #a, #b))

#define FAIL() GTEST_SHIM_ASSERT_(std::make_unique<std::string>("Failed"))
#define GTEST_SKIP()       \
  GTEST_SHIM_AMBIGUOUS_ELSE_ \
  return ::testing::internal::SkipHelper(__FILE__, __LINE__) = ::testing::Message()

#define GTEST_SHIM_CONCAT_IMPL_(a, b) a##b
#define GTEST_SHIM_CONCAT_(a, b) GTEST_SHIM_CONCAT_IMPL_(a, b)
/// Any streamable message (a testing::Message included); printed with
/// every failure while the enclosing scope lives.
#define SCOPED_TRACE(message)                                                   \
  const ::testing::internal::ScopedTrace GTEST_SHIM_CONCAT_(gtest_shim_trace_, \
                                                            __LINE__)(          \
      __FILE__, __LINE__, (::testing::Message() << (message)).str())

#define GTEST_SHIM_THROW_IMPL_(stmt, extype, fail_expr)                         \
  GTEST_SHIM_AMBIGUOUS_ELSE_                                                    \
  if (const auto gtest_shim_fail = [&]() -> std::unique_ptr<std::string> {      \
        fail_expr                                                               \
      }();                                                                      \
      !gtest_shim_fail)                                                         \
    ;                                                                           \
  else                                                                          \
    ::testing::internal::AssertHelper(__FILE__, __LINE__, *gtest_shim_fail) =   \
        ::testing::Message()

#define EXPECT_THROW(stmt, extype)                                              \
  GTEST_SHIM_THROW_IMPL_(stmt, extype, {                                        \
    try {                                                                       \
      stmt;                                                                     \
    } catch (const extype&) {                                                   \
      return nullptr;                                                           \
    } catch (...) {                                                             \
      return std::make_unique<std::string>(                                     \
          "Expected: " #stmt " throws " #extype ", actual: threw a different "  \
          "exception type");                                                    \
    }                                                                           \
    return std::make_unique<std::string>(                                       \
        "Expected: " #stmt " throws " #extype ", actual: no exception");        \
  })

#define EXPECT_NO_THROW(stmt)                                                   \
  GTEST_SHIM_THROW_IMPL_(stmt, void, {                                          \
    try {                                                                       \
      stmt;                                                                     \
    } catch (const std::exception& gtest_shim_e) {                              \
      return std::make_unique<std::string>(                                     \
          std::string("Expected: " #stmt " does not throw, actual: threw ") +   \
          gtest_shim_e.what());                                                 \
    } catch (...) {                                                             \
      return std::make_unique<std::string>(                                     \
          "Expected: " #stmt " does not throw, actual: threw");                 \
    }                                                                           \
    return nullptr;                                                             \
  })

#ifdef GTEST_SHIM_HAS_DEATH_TESTS
namespace testing::internal {

/// Runs `body` in a forked child with stderr/stdout captured; the death
/// "regex" is matched as a plain substring of the child's output.
inline std::unique_ptr<std::string> RunDeathTest(const std::function<void()>& body,
                                                 const char* pattern,
                                                 const char* stmt_text) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return std::make_unique<std::string>("EXPECT_DEATH: pipe() failed");
  }
  ::fflush(nullptr);
  const ::pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::make_unique<std::string>("EXPECT_DEATH: fork() failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], 1);
    ::dup2(fds[1], 2);
    ::close(fds[1]);
    body();        // an abort/uncaught throw kills the child here
    ::_exit(0);    // surviving means the statement did not die
  }
  ::close(fds[1]);
  std::string output;
  char buf[4096];
  ::ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  const bool died = WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
  if (!died) {
    return std::make_unique<std::string>(std::string("Expected: ") + stmt_text +
                                         " dies, actual: it returned normally");
  }
  if (output.find(pattern) == std::string::npos) {
    return std::make_unique<std::string>(
        std::string("Death message of ") + stmt_text + " does not contain \"" +
        pattern + "\"; actual output:\n" + output);
  }
  return nullptr;
}

}  // namespace testing::internal

#define EXPECT_DEATH(stmt, pattern) \
  GTEST_SHIM_EXPECT_(::testing::internal::RunDeathTest([&] { stmt; }, pattern, #stmt))
#else
// No fork(): run nothing and pass vacuously (the three death tests guard
// abort paths that the THROW tests also cover).
#define EXPECT_DEATH(stmt, pattern) GTEST_SHIM_EXPECT_(std::unique_ptr<std::string>{})
#endif
