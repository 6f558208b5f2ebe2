// Tiny command-line flag parser for the bench/ and examples/ binaries.
//
// Every bench used to hand-roll its own argv loop (five slightly different
// copies of strtol + bounds checks). ArgParser centralises the idiom:
// declare flags with defaults, ranges and help text; parse() handles
// --help (prints usage, exits 0), unknown flags and malformed values
// (diagnostic to stderr, exits 2 — the benches' historical contract).
//
// Deliberately minimal: long flags only ("--name value"), no positional
// arguments, no subcommands. Benches are scripts' tools; predictable beats
// featureful.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace star::util {

class ArgParser {
 public:
  ArgParser(std::string prog, std::string description);

  /// Integer flag "--name <v>" with inclusive [min, max] validation.
  void add_int(const std::string& name, long def, const std::string& help,
               long min_value, long max_value);
  /// String flag "--name <v>"; `choices` non-empty restricts the value set.
  void add_string(const std::string& name, std::string def,
                  const std::string& help,
                  std::vector<std::string> choices = {});

  /// Parse argv. On "--help"/"-h": print usage, exit 0. On any error
  /// (unknown flag, missing/malformed/out-of-range value): diagnostic to
  /// stderr, exit 2. Flags may repeat; the last occurrence wins.
  void parse(int argc, char** argv);

  [[nodiscard]] long get_int(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  /// True if the flag appeared on the command line (vs. holding its default).
  [[nodiscard]] bool provided(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kString };
  struct Spec {
    Kind kind = Kind::kInt;
    std::string help;
    long int_value = 0;
    long min_value = 0;
    long max_value = 0;
    std::string str_value;
    std::vector<std::string> choices;
    bool provided = false;
  };

  [[noreturn]] void fail(const std::string& message) const;
  const Spec& spec_for(const std::string& name, Kind kind) const;

  std::string prog_;
  std::string description_;
  std::map<std::string, Spec> specs_;  ///< ordered --help output
  std::vector<std::string> order_;
};

}  // namespace star::util
