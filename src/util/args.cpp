#include "util/args.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace wagg::util {

Args::Args(int argc, const char* const* argv,
           std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("unknown flag --" + key);
    }
    if (eq == std::string::npos) {
      // The explicit std::string temporary makes the map store a move, not
      // an operator=(const char*) — that spelling trips a GCC 12 -Wrestrict
      // false positive (impossible overlap offsets) once the string replace
      // path is inlined.
      values_.insert_or_assign(std::move(key), std::string("1"));
    } else {
      values_[std::move(key)] = arg.substr(eq + 1);
    }
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// parse(text, &consumed) on the whole of `text`. A value with no leading
/// number, with trailing characters or out of range throws one
/// std::invalid_argument that names the flag and the value.
template <class Parse>
auto parse_whole(const std::string& key, const std::string& text,
                 const char* what, Parse parse) {
  std::size_t consumed = 0;
  try {
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range from the parse.
  }
  throw std::invalid_argument("Args: --" + key + " is not " + what + ": " +
                              text);
}

}  // namespace

std::size_t parse_count(const std::string& key, const std::string& text) {
  return parse_whole(key, text, "a count",
                     [](const std::string& item, std::size_t* consumed) {
                       // stoull skips blanks and wraps a leading minus; a
                       // count starts with a digit.
                       if (item.empty() || item[0] < '0' || item[0] > '9') {
                         throw std::invalid_argument(item);
                       }
                       return static_cast<std::size_t>(
                           std::stoull(item, consumed));
                     });
}

double parse_number(const std::string& key, const std::string& text) {
  return parse_whole(key, text, "a number",
                     [](const std::string& item, std::size_t* consumed) {
                       return std::stod(item, consumed);
                     });
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_number(key, it->second);
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "an integer",
                     [](const std::string& text, std::size_t* consumed) {
                       return std::stoll(text, consumed);
                     });
}

std::size_t Args::get_count(const std::string& key,
                            std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_count(key, it->second);
}

}  // namespace wagg::util
