// Deterministic mutation fuzzing of JsonValue::Parse. The corpus is every
// committed golden under bench/expectations/ (figure bands, crashcheck and
// serve reports, timelines, span exports, trace stats); each test derives
// seeded mutants from it — byte flips, truncations, splices — and requires the
// parser to return true, or false with an error naming a byte offset inside
// the input, and never to crash. ASan/UBSan builds run the same corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/trace/json.h"

namespace pmemsim {
namespace {

struct Golden {
  std::string name;
  std::string text;
};

const std::vector<Golden>& Corpus() {
  static const std::vector<Golden> corpus = [] {
    namespace fs = std::filesystem;
    std::vector<Golden> out;
    for (const auto& entry : fs::recursive_directory_iterator(PMEMSIM_EXPECTATIONS_DIR)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        std::ostringstream text;
        text << std::ifstream(entry.path(), std::ios::binary).rdbuf();
        out.push_back({entry.path().string(), text.str()});
      }
    }
    // Directory order is unspecified; sort so every run draws the same mutants.
    const auto by_name = [](const Golden& a, const Golden& b) { return a.name < b.name; };
    std::sort(out.begin(), out.end(), by_name);
    return out;
  }();
  return corpus;
}

// Parses one mutant: success is fine, failure must carry "at offset N" with
// N within the input.
void ExpectParsesOrRejects(const std::string& text, const std::string& what) {
  JsonValue v;
  std::string error;
  if (JsonValue::Parse(text, &v, &error)) {
    return;
  }
  const size_t at = error.rfind(" at offset ");
  ASSERT_NE(at, std::string::npos) << what << ": " << error;
  const unsigned long long offset = std::stoull(error.substr(at + 11));
  EXPECT_LE(offset, text.size()) << what << ": " << error;
}

// Bytes that steer the parser into its structural and escape branches; the
// terminating NUL is one of them.
constexpr char kInteresting[] = "{}[]\",:\\u-0e. tn\x7f\xff";

TEST(JsonFuzz, CorpusParses) {
  ASSERT_GE(Corpus().size(), 20u);
  for (const Golden& g : Corpus()) {
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(g.text, &v, &error)) << g.name << ": " << error;
  }
}

TEST(JsonFuzz, ByteFlipsParseOrReject) {
  Rng rng(0xF1195);
  for (const Golden& g : Corpus()) {
    for (int m = 0; m < 64; ++m) {
      std::string text = g.text;
      const uint64_t edits = 1 + rng.NextBelow(4);
      for (uint64_t e = 0; e < edits; ++e) {
        char& c = text[rng.NextBelow(text.size())];
        if (rng.NextBelow(2) == 0) {
          c = static_cast<char>(c ^ (1 << rng.NextBelow(8)));
        } else {
          c = kInteresting[rng.NextBelow(sizeof(kInteresting))];
        }
      }
      ExpectParsesOrRejects(text, g.name + " flip " + std::to_string(m));
    }
  }
}

TEST(JsonFuzz, TruncationsParseOrReject) {
  Rng rng(0x7A0C);
  for (const Golden& g : Corpus()) {
    // Every prefix of the small goldens; a seeded sample of the large ones.
    if (g.text.size() <= 4096) {
      for (size_t len = 0; len < g.text.size(); ++len) {
        ExpectParsesOrRejects(g.text.substr(0, len), g.name + " prefix " + std::to_string(len));
      }
      continue;
    }
    for (int m = 0; m < 64; ++m) {
      const size_t len = rng.NextBelow(g.text.size());
      ExpectParsesOrRejects(g.text.substr(0, len), g.name + " prefix " + std::to_string(len));
    }
  }
}

TEST(JsonFuzz, SplicesParseOrReject) {
  Rng rng(0x5B11CE);
  const std::vector<Golden>& corpus = Corpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    const std::string& head = corpus[i].text;
    for (int m = 0; m < 64; ++m) {
      // A prefix of this golden joined to a suffix of any golden (itself
      // included), which repeats, drops or mismatches nesting levels.
      const std::string& tail = corpus[rng.NextBelow(corpus.size())].text;
      std::string text = head.substr(0, rng.NextBelow(head.size() + 1));
      text += tail.substr(rng.NextBelow(tail.size()));
      ExpectParsesOrRejects(text, corpus[i].name + " splice " + std::to_string(m));
    }
  }
}

}  // namespace
}  // namespace pmemsim
