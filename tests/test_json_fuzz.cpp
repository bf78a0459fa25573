// Structure-aware fuzz layer for the hand-rolled JSON parser/writer
// (util/json.h).  Three attack surfaces, all seeded and deterministic:
//
//   1. round-trip: random documents (nested arrays/objects, escaped and
//      unicode strings, bit-pattern doubles) must survive
//      dump -> parse -> dump byte for byte at every indent;
//   2. malformed corpus: every known-bad input must throw
//      std::invalid_argument carrying an offset that points inside (or
//      just past) the input — never crash, never mis-parse;
//   3. mutation fuzz: random truncations and byte flips of valid
//      documents must either parse or throw std::invalid_argument —
//      nothing else.  (CI runs this file under ASan+UBSan, which turns
//      any lurking UB into a failure.)
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace simphony::util {
namespace {

// ------------------------------------------------------ random generation

std::string random_string(Rng& rng) {
  static const std::string alphabet =
      "abcXYZ012 _-\"\\\n\t\r\b\f/\u00e9\u20ac";
  std::string out;
  const int len = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < len; ++i) {
    out += alphabet[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(alphabet.size()) - 1))];
  }
  return out;
}

double random_number(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return static_cast<double>(rng.uniform_int(-1000000, 1000000));
    case 1:
      return rng.uniform(-1.0, 1.0);
    case 2:
      return rng.uniform(-1e300, 1e300);
    case 3:
      return rng.uniform(0.0, 1.0) * 1e-300;
    default: {
      // Random bit patterns, filtered to finite values (non-finite
      // doubles intentionally serialize as null and cannot round-trip).
      const uint64_t bits =
          (static_cast<uint64_t>(rng.uniform_int(0, INT64_MAX)) << 1) ^
          static_cast<uint64_t>(rng.uniform_int(0, 1));
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof(d));
      return std::isfinite(d) ? d : rng.uniform(-8.0, 8.0);
    }
  }
}

Json random_value(Rng& rng, int depth) {
  const int64_t kind = rng.uniform_int(0, depth >= 4 ? 3 : 5);
  switch (kind) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.coin());
    case 2:
      return Json(random_number(rng));
    case 3:
      return Json(random_string(rng));
    case 4: {
      Json array{Json::Array{}};
      const int n = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < n; ++i) {
        array.push_back(random_value(rng, depth + 1));
      }
      return array;
    }
    default: {
      Json object{Json::Object{}};
      const int n = static_cast<int>(rng.uniform_int(0, 5));
      for (int i = 0; i < n; ++i) {
        object["k" + std::to_string(i) + random_string(rng)] =
            random_value(rng, depth + 1);
      }
      return object;
    }
  }
}

// ------------------------------------------------------------- round trips

TEST(JsonFuzz, RandomDocumentsRoundTripExactly) {
  Rng rng(1234);
  for (int round = 0; round < 300; ++round) {
    const Json value = random_value(rng, 0);
    const std::string compact = value.dump(-1);
    Json reparsed;
    ASSERT_NO_THROW(reparsed = Json::parse(compact)) << compact;
    EXPECT_EQ(reparsed.dump(-1), compact) << "round=" << round;
    // Pretty-printing must not change the value, only the whitespace.
    EXPECT_EQ(Json::parse(value.dump(2)).dump(-1), compact)
        << "round=" << round;
    EXPECT_EQ(Json::parse(value.dump(0)).dump(-1), compact)
        << "round=" << round;
  }
}

TEST(JsonFuzz, RandomDoublesSurviveBitForBit) {
  Rng rng(88);
  for (int round = 0; round < 500; ++round) {
    const double d = random_number(rng);
    const Json parsed = Json::parse(Json(d).dump(-1));
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.as_number(), d) << "round=" << round;
  }
}

// --------------------------------------------------------- malformed corpus

size_t parse_reported_offset(const std::string& what) {
  const std::string marker = "offset ";
  const size_t at = what.find(marker);
  if (at == std::string::npos) return std::string::npos;
  return static_cast<size_t>(
      std::stoull(what.substr(at + marker.size())));
}

TEST(JsonFuzz, MalformedCorpusThrowsInvalidArgumentWithSaneOffset) {
  const std::vector<std::string> corpus = {
      "",
      "   ",
      "{",
      "}",
      "[",
      "]",
      "[1,",
      "[1 2]",
      "[1,]",
      "{\"a\":}",
      "{\"a\" 1}",
      "{\"a\":1,}",
      "{\"a\":1 \"b\":2}",
      "{a:1}",
      "nul",
      "tru",
      "falsy",
      "truex",
      "nullll",
      "01",
      "-",
      "+1",
      "1.",
      ".5",
      "1e",
      "1e+",
      "--1",
      "0x10",
      "Infinity",
      "NaN",
      "\"unterminated",
      "\"bad escape \\x\"",
      "\"\\u12\"",
      "\"\\u12g4\"",
      "\"\\ud800\"",          // lone high surrogate
      "\"\\udc00\"",          // lone low surrogate
      "\"\\ud800\\u0041\"",   // high surrogate + non-surrogate
      std::string("\"ctrl \x01\""),  // raw control character
      "1 2",
      "[1] garbage",
      "{} {}",
      std::string(600, '['),  // past the nesting limit
      std::string(600, '[') + "1" + std::string(600, ']'),
  };
  for (const std::string& bad : corpus) {
    try {
      (void)Json::parse(bad);
      FAIL() << "accepted malformed input: '" << bad.substr(0, 40) << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("JSON parse error"), std::string::npos) << what;
      const size_t offset = parse_reported_offset(what);
      ASSERT_NE(offset, std::string::npos) << what;
      EXPECT_LE(offset, bad.size())
          << "offset past the input for '" << bad.substr(0, 40) << "'";
    }
  }
}

// ----------------------------------------------------------- mutation fuzz

TEST(JsonFuzz, TruncationsEitherParseOrThrowInvalidArgument) {
  Rng rng(4321);
  for (int round = 0; round < 40; ++round) {
    const std::string doc = random_value(rng, 0).dump(-1);
    for (size_t cut = 0; cut <= doc.size(); ++cut) {
      const std::string truncated = doc.substr(0, cut);
      try {
        (void)Json::parse(truncated);  // short prefixes can be valid
                                       // ("1" of "123") — that is fine
      } catch (const std::invalid_argument&) {
        // expected for the rest
      } catch (...) {
        FAIL() << "non-invalid_argument exception on truncation of '" << doc
               << "' at " << cut;
      }
    }
  }
}

TEST(JsonFuzz, ByteFlipsEitherParseOrThrowInvalidArgument) {
  Rng rng(777);
  for (int round = 0; round < 400; ++round) {
    std::string doc = random_value(rng, 0).dump(-1);
    if (doc.empty()) continue;
    const size_t at = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int64_t>(doc.size()) - 1));
    doc[at] = static_cast<char>(rng.uniform_int(1, 127));
    try {
      (void)Json::parse(doc);
    } catch (const std::invalid_argument& e) {
      EXPECT_LE(parse_reported_offset(e.what()), doc.size());
    } catch (...) {
      FAIL() << "non-invalid_argument exception on mutated '" << doc << "'";
    }
  }
}

// Structured DSE-shard-shaped documents with mid-array damage: the
// recovery path --merge relies on is "parse throws invalid_argument, fix
// the file"; it must never be "crash".
TEST(JsonFuzz, DamagedShardDocumentsNeverCrash) {
  Rng rng(5150);
  const std::string shard =
      "{\n\"arch\": \"scatter+mzi\",\n\"model\": \"vgg8\",\n\"sampler\": "
      "\"grid\",\n\"shard\": {\"count\": 2, \"index\": 0},\n"
      "\"total_points\": 8,\n\"points\": [\n"
      "{\"index\":0,\"tiles\":1,\"energy_pJ\":1.5,\"pareto\":true},\n"
      "{\"index\":2,\"tiles\":2,\"energy_pJ\":null,\"pareto\":false}\n]\n}\n";
  ASSERT_NO_THROW((void)Json::parse(shard));
  for (int round = 0; round < 200; ++round) {
    std::string damaged = shard;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        damaged = shard.substr(
            0, static_cast<size_t>(rng.uniform_int(
                   0, static_cast<int64_t>(shard.size()) - 1)));
        break;
      case 1:
        damaged[static_cast<size_t>(rng.uniform_int(
            0, static_cast<int64_t>(shard.size()) - 1))] =
            static_cast<char>(rng.uniform_int(1, 127));
        break;
      default:
        damaged.insert(static_cast<size_t>(rng.uniform_int(
                           0, static_cast<int64_t>(shard.size()) - 1)),
                       1, static_cast<char>(rng.uniform_int(1, 127)));
        break;
    }
    try {
      (void)Json::parse(damaged);
    } catch (const std::invalid_argument&) {
      // the documented failure mode
    } catch (...) {
      FAIL() << "non-invalid_argument exception on damaged shard (round "
             << round << ")";
    }
  }
}

}  // namespace
}  // namespace simphony::util
