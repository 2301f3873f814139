#ifndef VODAK_COMMON_STRING_UTIL_H_
#define VODAK_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vodak {

/// Join `parts` with `sep`, e.g. Join({"a","b"}, ", ") == "a, b".
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-case ASCII copy.
std::string ToLower(std::string_view s);

/// Split `s` into maximal runs of ASCII alphanumeric characters (every
/// other byte, including all bytes >= 0x80, separates), lower-cased.
/// This is the tokenizer shared by the inverted index and by the
/// per-object `contains_string` scan so that both sides of equivalence E5
/// agree exactly on what "contains" means.
std::vector<std::string> TokenizeWords(std::string_view s);

/// TokenizeWords(s).size() without materializing the words: the number
/// of maximal alphanumeric runs in `s`, on the same word boundary.
size_t CountWords(std::string_view s);

/// Case-sensitive substring test used by token-granularity callers that
/// need the raw semantics (infrastructure helper).
bool ContainsSubstring(std::string_view haystack, std::string_view needle);

/// 64-bit FNV-1a hash, the common hash primitive for values and plans.
uint64_t HashBytes(const void* data, size_t n, uint64_t seed = 14695981039346656037ULL);

/// Combine two 64-bit hashes (boost-style mixing).
uint64_t HashCombine(uint64_t a, uint64_t b);

}  // namespace vodak

#endif  // VODAK_COMMON_STRING_UTIL_H_
