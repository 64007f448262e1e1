#ifndef WAGG_UTIL_ARGS_H
#define WAGG_UTIL_ARGS_H

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace wagg::util {

/// Minimal `--key=value` command-line parser for the example binaries.
/// `--flag` with no value maps to "1"; non-`--` tokens are ignored. `known`
/// lists every flag the CLI reads: any other flag throws
/// std::invalid_argument naming it, so a misspelt or retired flag fails
/// instead of silently dropping what it asked for.
class Args {
 public:
  Args(int argc, const char* const* argv,
       std::initializer_list<std::string_view> known);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Throws std::invalid_argument when the value does not parse fully.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  /// A non-negative integer: "-1" throws (`Args: --repeat is not a count:
  /// -1`) where a cast of get_int would wrap it to ~1.8e19.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The whole-value parses behind get_count and get_double, for the items
/// of a comma-separated list flag: `text` is one item of --`key`.
[[nodiscard]] std::size_t parse_count(const std::string& key,
                                      const std::string& text);
[[nodiscard]] double parse_number(const std::string& key,
                                  const std::string& text);

}  // namespace wagg::util

#endif  // WAGG_UTIL_ARGS_H
