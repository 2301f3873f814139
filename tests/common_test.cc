#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "workload/document_db.h"

namespace vodak {
namespace {

TEST(StatusTest, OkIsOk) {
  Status s = Status::OK();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  VODAK_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
  EXPECT_EQ(*r, 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(5).value(), 10);
  EXPECT_FALSE(Doubled(-5).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfSampler z(10, 0.0, 123);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[z.Next()];
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfTest, SkewedWhenThetaLarge) {
  ZipfSampler z(100, 1.2, 123);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 10000; ++i) ++counts[z.Next()];
  // Rank 0 should dominate rank 50.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
}

TEST(StringUtilTest, TokenizeWords) {
  EXPECT_EQ(TokenizeWords("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(TokenizeWords(""), std::vector<std::string>{});
  EXPECT_EQ(TokenizeWords("a1 b2-c3"),
            (std::vector<std::string>{"a1", "b2", "c3"}));
}

TEST(StringUtilTest, CountWordsMatchesTokenizeOnEdgeCases) {
  const std::vector<std::string> cases = {
      "",
      " ",
      ",.;- \t\n",
      "word",
      "  leading",
      "trailing  ",
      "  both ends  ",
      "a1 b2-c3",
      "x,,y",
      "caf\xc3\xa9 na\xc3\xaf" "ve",  // bytes >= 0x80 are separators
      "\x80\xff",
      "\xffmid\x80" "dle\xfe",
  };
  for (const std::string& s : cases) {
    EXPECT_EQ(CountWords(s), TokenizeWords(s).size()) << '"' << s << '"';
  }
  EXPECT_EQ(CountWords(""), 0u);
  EXPECT_EQ(CountWords(" - "), 0u);
  EXPECT_EQ(CountWords("  both ends  "), 2u);
  // Every single byte: a word exactly when std::isalnum says so in the
  // "C" locale the engine runs in.
  for (int c = 0; c < 256; ++c) {
    const std::string byte(1, static_cast<char>(c));
    const size_t want = std::isalnum(c) ? 1 : 0;
    EXPECT_EQ(CountWords(byte), want) << c;
    EXPECT_EQ(TokenizeWords(byte).size(), want) << c;
  }
}

TEST(StringUtilTest, CountWordsMatchesTokenizeOnCorpusBodies) {
  workload::DocumentDb db;
  ASSERT_TRUE(db.Init().ok());
  workload::CorpusParams params;
  params.num_documents = 20;
  ASSERT_TRUE(db.Populate(params).ok());
  const PropertyDef* content =
      db.catalog().FindClass("Paragraph")->FindProperty("content");
  ASSERT_NE(content, nullptr);
  auto extent = db.store().Extent(db.paragraph_class_id());
  ASSERT_TRUE(extent.ok());
  ASSERT_FALSE(extent.value().empty());
  for (Oid oid : extent.value()) {
    auto body = db.store().GetProperty(oid, content->slot);
    ASSERT_TRUE(body.ok());
    ASSERT_TRUE(body.value().is_string());
    const std::string& text = body.value().AsString();
    EXPECT_EQ(CountWords(text), TokenizeWords(text).size()) << text;
  }
}

TEST(StringUtilTest, ContainsSubstring) {
  EXPECT_TRUE(ContainsSubstring("query optimization", "optim"));
  EXPECT_FALSE(ContainsSubstring("query", "quarry"));
}

TEST(StringUtilTest, HashStable) {
  EXPECT_EQ(HashBytes("abc", 3), HashBytes("abc", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
}

TEST(StringUtilTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace vodak
