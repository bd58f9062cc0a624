#include "util/fault_inject.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace uniscan {

namespace {

/// Field match: exact, or prefix when the pattern ends in `*` (so `*` alone
/// matches everything).
bool field_matches(std::string_view pattern, std::string_view value) {
  if (!pattern.empty() && pattern.back() == '*') {
    pattern.remove_suffix(1);
    return value.substr(0, pattern.size()) == pattern;
  }
  return pattern == value;
}

/// One `<circuit>:<stage>` spec. The stage is the field after the LAST
/// colon, so circuit names may contain colons. Malformed specs are inert,
/// never fatal.
bool spec_matches(std::string_view spec, const std::string& circuit, const std::string& stage) {
  const auto colon = spec.rfind(':');
  if (colon == std::string_view::npos) return false;
  return field_matches(spec.substr(0, colon), circuit) &&
         field_matches(spec.substr(colon + 1), stage);
}

}  // namespace

void maybe_inject_fault(const std::string& circuit, const std::string& stage) {
  // Read the environment on every call: the tests flip the variable between
  // suite runs inside one process, so a cached value would go stale.
  const char* env = std::getenv("UNISCAN_FAULT_INJECT");
  if (!env || !*env) return;
  std::string_view all(env);
  while (!all.empty()) {
    const auto semi = all.find(';');
    const std::string_view spec = all.substr(0, semi);
    if (spec_matches(spec, circuit, stage))
      throw std::runtime_error("injected fault (UNISCAN_FAULT_INJECT=" + std::string(spec) +
                               ") in stage '" + stage + "' of circuit '" + circuit + "'");
    if (semi == std::string_view::npos) break;
    all.remove_prefix(semi + 1);
  }
}

}  // namespace uniscan
