#include "common/string_util.h"

#include <array>
#include <cctype>

namespace vodak {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

namespace {

/// The word-byte class TokenizeWords and CountWords share: ASCII letters
/// and digits, which is std::isalnum in the "C" locale the engine runs
/// in. A fixed table keeps both (and so both sides of E5) on one
/// boundary whatever the process locale, and lets CountWords run
/// branch-free.
constexpr std::array<bool, 256> kWordByte = [] {
  std::array<bool, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = true;
  return table;
}();

bool IsWordByte(char c) { return kWordByte[static_cast<unsigned char>(c)]; }

}  // namespace

std::vector<std::string> TokenizeWords(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (IsWordByte(c)) {
      cur.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

size_t CountWords(std::string_view s) {
  // A word starts at every word byte that follows a non-word byte.
  size_t count = 0;
  bool prev = false;
  for (char c : s) {
    const bool cur = IsWordByte(c);
    count += cur && !prev;
    prev = cur;
  }
  return count;
}

bool ContainsSubstring(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  a ^= b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4);
  return a;
}

}  // namespace vodak
