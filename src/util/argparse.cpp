#include "util/argparse.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/status.hpp"

namespace star::util {

ArgParser::ArgParser(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description)) {}

void ArgParser::add_int(const std::string& name, long def, const std::string& help,
                        long min_value, long max_value) {
  require(!specs_.contains(name), [&] { return "ArgParser: duplicate flag --" + name; });
  require(min_value <= def && def <= max_value,
          [&] { return "ArgParser: default out of range for --" + name; });
  Spec s;
  s.kind = Kind::kInt;
  s.help = help;
  s.int_value = def;
  s.min_value = min_value;
  s.max_value = max_value;
  specs_.emplace(name, std::move(s));
  order_.push_back(name);
}

void ArgParser::add_string(const std::string& name, std::string def,
                           const std::string& help,
                           std::vector<std::string> choices) {
  require(!specs_.contains(name), [&] { return "ArgParser: duplicate flag --" + name; });
  require(choices.empty() ||
              std::find(choices.begin(), choices.end(), def) != choices.end(),
          [&] { return "ArgParser: default not among choices for --" + name; });
  Spec s;
  s.kind = Kind::kString;
  s.help = help;
  s.str_value = std::move(def);
  s.choices = std::move(choices);
  specs_.emplace(name, std::move(s));
  order_.push_back(name);
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << "usage: " << prog_ << " [flags]\n\n" << description_ << "\n\nflags:\n";
  for (const std::string& name : order_) {
    const Spec& s = specs_.at(name);
    std::ostringstream left;
    left << "  --" << name;
    switch (s.kind) {
      case Kind::kInt:
        left << " <int>";
        break;
      case Kind::kString:
        left << " <str>";
        break;
    }
    out << left.str();
    for (std::size_t pad = left.str().size(); pad < 26; ++pad) {
      out << ' ';
    }
    out << s.help;
    switch (s.kind) {
      case Kind::kInt:
        out << " (default " << s.int_value << ")";
        break;
      case Kind::kString:
        out << " (default \"" << s.str_value << "\"";
        if (!s.choices.empty()) {
          out << "; one of";
          for (const std::string& c : s.choices) {
            out << ' ' << c;
          }
        }
        out << ")";
        break;
    }
    out << '\n';
  }
  out << "  --help                  print this message and exit\n";
  return out.str();
}

void ArgParser::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), message.c_str(),
               usage().c_str());
  std::exit(2);
}

void ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      fail("unexpected argument: " + arg);
    }
    const std::string name = arg.substr(2);
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      fail("unknown flag: " + arg);
    }
    Spec& s = it->second;
    s.provided = true;
    if (i + 1 >= argc) {
      fail("missing value for " + arg);
    }
    const char* value = argv[++i];
    if (s.kind == Kind::kInt) {
      char* end = nullptr;
      const long v = std::strtol(value, &end, 10);
      if (end == value || *end != '\0') {
        fail("invalid value for " + arg + ": " + value);
      }
      if (v < s.min_value || v > s.max_value) {
        fail("value for " + arg + " must be in [" + std::to_string(s.min_value) +
             ", " + std::to_string(s.max_value) + "], got " + value);
      }
      s.int_value = v;
    } else {
      if (!s.choices.empty() &&
          std::find(s.choices.begin(), s.choices.end(), value) ==
              s.choices.end()) {
        fail("invalid value for " + arg + ": " + value);
      }
      s.str_value = value;
    }
  }
}

const ArgParser::Spec& ArgParser::spec_for(const std::string& name,
                                           Kind kind) const {
  const auto it = specs_.find(name);
  require(it != specs_.end(), [&] { return "ArgParser: unregistered flag --" + name; });
  require(it->second.kind == kind, [&] { return "ArgParser: wrong type for --" + name; });
  return it->second;
}

long ArgParser::get_int(const std::string& name) const {
  return spec_for(name, Kind::kInt).int_value;
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return spec_for(name, Kind::kString).str_value;
}

bool ArgParser::provided(const std::string& name) const {
  const auto it = specs_.find(name);
  require(it != specs_.end(), [&] { return "ArgParser: unregistered flag --" + name; });
  return it->second.provided;
}

}  // namespace star::util
