// The flag parser behind the qperc command table (tools/qperc_cli.cpp).
//
// Each flag is declared once, in the command table, with its literal name
// (dashes included), its metavar and its kind; the kind decides how the
// parser reads it. Bad input is never silently ignored or parsed as 0: an
// unknown flag, a stray positional argument, a value flag without its value,
// a boolean flag followed by a value, a malformed or out-of-range number, or
// a bad --shard I/N is a thrown std::invalid_argument, which main() turns
// into exit code 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace qperc {

enum class FlagKind { kValue, kBool, kU64, kU32, kDouble, kList, kShard };

struct Flag {
  std::string_view name;     // with its dashes: "--jobs"
  std::string_view metavar;  // empty for kBool
  FlagKind kind;
};
using Flags = std::vector<Flag>;

inline Flags operator+(Flags lhs, const Flags& rhs) {
  lhs.insert(lhs.end(), rhs.begin(), rhs.end());
  return lhs;
}

/// The one number parser, behind every numeric flag and list element: the
/// whole of `text` must be a T (an integer that overflows T is rejected).
template <class T>
T parse_number(std::string_view text, std::string_view flag) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc{} && end == text.data() + text.size()) return value;
  const std::string expects = std::is_floating_point_v<T> ? "a number"
                              : sizeof(T) == 4 ? "an integer in 0..4294967295"
                                               : "a non-negative integer";
  throw std::invalid_argument(std::string(flag) + " expects " + expects + ", got '" +
                              std::string(text) + "'");
}

/// "I/N" as (shard index, shard count); each part parses whole.
inline std::pair<unsigned, unsigned> parse_shard(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    throw std::invalid_argument("--shard expects I/N (e.g. --shard 0/4), got '" +
                                std::string(text) + "'");
  }
  return {parse_number<unsigned>(text.substr(0, slash), "--shard"),
          parse_number<unsigned>(text.substr(slash + 1), "--shard")};
}

/// Splits "A,B,C" into {"A","B","C"}, dropping empty fields.
inline std::vector<std::string> split_csv(std::string_view csv) {
  std::vector<std::string> parts;
  for (std::size_t start = 0; start <= csv.size();) {
    const std::size_t end = std::min(csv.find(',', start), csv.size());
    if (end > start) parts.emplace_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

/// The flags of one command line, checked against the command's flags;
/// flags may appear in any order and a repeated flag keeps its last value.
class Args {
 public:
  Args(std::string_view command, const Flags& flags, int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string_view name = argv[i];
      const auto flag = std::ranges::find(flags, name, &Flag::name);
      if (flag == flags.end()) {
        throw std::invalid_argument(
            (name.starts_with("--") ? "unknown flag '" : "unexpected argument '") +
            std::string(name) + "' for 'qperc " + std::string(command) +
            "' (see `qperc` usage)");
      }
      std::string value;
      if (flag->kind != FlagKind::kBool) {
        if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
          throw std::invalid_argument(std::string(name) + " expects " +
                                      std::string(flag->metavar));
        }
        value = argv[++i];
      }
      if (flag->kind == FlagKind::kU64) parse_number<std::uint64_t>(value, name);
      if (flag->kind == FlagKind::kU32) parse_number<std::uint32_t>(value, name);
      if (flag->kind == FlagKind::kDouble) parse_number<double>(value, name);
      if (flag->kind == FlagKind::kShard) parse_shard(value);
      values_.insert_or_assign(std::string(name), std::move(value));
    }
  }

  [[nodiscard]] bool has(std::string_view flag) const { return values_.contains(flag); }
  [[nodiscard]] std::string get(std::string_view flag, std::string_view fallback) const {
    const auto it = values_.find(flag);
    return std::string(it == values_.end() ? fallback : it->second);
  }
  [[nodiscard]] std::uint64_t u64(std::string_view flag, std::uint64_t fallback) const {
    return number(flag, fallback);
  }
  [[nodiscard]] std::uint32_t u32(std::string_view flag, std::uint32_t fallback) const {
    return number(flag, fallback);
  }
  [[nodiscard]] double real(std::string_view flag, double fallback) const {
    return number(flag, fallback);
  }
  [[nodiscard]] std::vector<std::string> list(std::string_view flag,
                                              std::string_view fallback) const {
    return split_csv(get(flag, fallback));
  }
  /// Applies --shard I/N, if given, to a shard geometry.
  void shard(unsigned& index, unsigned& count) const {
    if (has("--shard")) std::tie(index, count) = parse_shard(get("--shard", ""));
  }

 private:
  template <class T>
  [[nodiscard]] T number(std::string_view flag, T fallback) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : parse_number<T>(it->second, flag);
  }

  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace qperc
