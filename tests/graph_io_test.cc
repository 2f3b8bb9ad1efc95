// Unit tests for edge-list parsing and round-tripping.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

using testing_util::CsrArrays;
using testing_util::CsrOf;
using testing_util::LoadEdgeListText;

TEST(GraphIoTest, ParseBasicDirected) {
  auto result = LoadEdgeListText("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_nodes(), 3u);
  EXPECT_EQ(result->num_edges(), 3u);
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  auto result = LoadEdgeListText("# header\n\n% other comment\n0 1\n\n1 0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
}

TEST(GraphIoTest, CompactsSparseIds) {
  auto result = LoadEdgeListText("1000 2000\n2000 31\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_nodes(), 3u);
  EXPECT_EQ(result->num_edges(), 2u);
}

TEST(GraphIoTest, UndirectedDoublesEdges) {
  EdgeListOptions options;
  options.undirected = true;
  auto result = LoadEdgeListText("0 1\n1 2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 4u);
  EXPECT_TRUE(result->is_symmetric());
}

TEST(GraphIoTest, MalformedLineFails) {
  auto result = LoadEdgeListText("0 1\nnot numbers\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, MissingFileFails) {
  auto result = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  // Ids already appear in first-appearance order, so a reload keeps them
  // and the whole CSR must come back unchanged in either format.
  auto original = LoadEdgeListText("0 1\n0 2\n1 2\n2 3\n3 0\n");
  ASSERT_TRUE(original.ok());
  for (const char* name : {"simpush_io_test.txt", "simpush_io_test.spg"}) {
    SCOPED_TRACE(name);
    const std::string path = ::testing::TempDir() + "/" + name;
    ASSERT_TRUE(SaveGraphAnyFormat(*original, path).ok());
    auto reloaded = LoadGraphAnyFormat(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_TRUE(CsrOf(*reloaded) == CsrOf(*original));
    std::remove(path.c_str());
  }
}

TEST(GraphIoTest, CollapsesParallelEdgesAndKeepsSelfLoops) {
  auto result = LoadEdgeListText("0 1\n0 1\n0 0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 2u);
}

// ---------------------------------------------------------------------
// Differential tests: the loader against a reference implementation of
// the original algorithm (getline + istringstream per line, ids
// compacted in first-appearance order through a std::map, then a
// global std::sort + std::unique). Every input here is one both accept,
// and the two must agree on every CSR array.

std::optional<CsrArrays> ReferenceParse(const std::string& text,
                                        const EdgeListOptions& options) {
  std::istringstream in(text);
  std::map<uint64_t, NodeId> remap;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::string line;
  while (std::getline(in, line)) {
    const size_t pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '#' || line[pos] == '%') continue;
    std::istringstream fields(line);
    uint64_t a = 0;
    uint64_t b = 0;
    if (!(fields >> a >> b)) return std::nullopt;
    const NodeId src =
        remap.emplace(a, static_cast<NodeId>(remap.size())).first->second;
    const NodeId dst =
        remap.emplace(b, static_cast<NodeId>(remap.size())).first->second;
    edges.emplace_back(src, dst);
    if (options.undirected) edges.emplace_back(dst, src);
  }
  return testing_util::ReferenceCsr(static_cast<NodeId>(remap.size()),
                                    std::move(edges), options.undirected,
                                    /*dedupe=*/true);
}

// Sparse 64-bit ids, the two extremes always among them.
std::vector<uint64_t> IdPool(std::mt19937_64& rng, size_t size) {
  std::vector<uint64_t> ids = {0, std::numeric_limits<uint64_t>::max()};
  while (ids.size() < size) ids.push_back(rng() % 2 ? rng() : rng() % 1000);
  return ids;
}

// One line of a SNAP-style edge list, newline included: an edge with
// optional leading whitespace, space/tab separators, a trailing weight
// column or trailing whitespace, or a comment, blank or whitespace-only
// line; LF or CRLF.
void AppendRandomLine(std::mt19937_64& rng, const std::vector<uint64_t>& ids,
                      std::string* text) {
  static const char* const kSeparators[] = {" ", "\t", "  ", " \t "};
  auto separator = [&rng] { return kSeparators[rng() % 4]; };
  auto id = [&] { return std::to_string(ids[rng() % ids.size()]); };
  switch (rng() % 10) {
    case 0:
      *text += rng() % 2 ? "# comment 1 2" : "  % 3 4 header";
      break;
    case 1:
      break;  // blank
    case 2:
      *text += " \t ";
      break;
    default: {
      if (rng() % 4 == 0) *text += separator();
      const std::string src = id();
      *text += src;
      *text += separator();
      *text += rng() % 8 == 0 ? src : id();  // self-loop
      switch (rng() % 4) {
        case 0:
          *text += separator();
          *text += "0.5";  // weight column
          break;
        case 1:
          *text += separator();
          break;
        default:
          break;
      }
    }
  }
  *text += rng() % 3 == 0 ? "\r\n" : "\n";
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

// LoadEdgeList matches the reference, read as directed and as
// undirected.
void ExpectMatchesReference(const std::string& text, const std::string& path) {
  for (const bool undirected : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "undirected " << undirected);
    EdgeListOptions options;
    options.undirected = undirected;
    const std::optional<CsrArrays> expected = ReferenceParse(text, options);
    ASSERT_TRUE(expected.has_value());
    auto loaded = LoadEdgeList(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(CsrOf(*loaded) == *expected) << "LoadEdgeList";
  }
}

TEST(GraphIoDifferentialTest, RandomEdgeListsMatchReference) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    const std::vector<uint64_t> ids = IdPool(rng, 2 + rng() % 60);
    std::string text;
    const size_t lines = rng() % 400;
    for (size_t i = 0; i < lines; ++i) AppendRandomLine(rng, ids, &text);
    // Odd seeds end on an edge with no final newline.
    if (seed % 2 == 1) text += "17 " + std::to_string(ids[0]);
    const std::string path = WriteTemp("simpush_diff.txt", text);
    ExpectMatchesReference(text, path);
    std::remove(path.c_str());
  }
}

// A file of more than two of the loader's 1 MiB read blocks. The first
// block boundary falls inside a 20-digit id; the second falls between a
// CR and its LF; the file ends without a newline.
TEST(GraphIoDifferentialTest, LinesStraddlingBlockBoundariesMatchReference) {
  constexpr size_t kBlock = size_t{1} << 20;
  std::mt19937_64 rng(2024);
  const std::vector<uint64_t> ids = IdPool(rng, 5000);
  const std::string split_id = "18446744073709551615 12345678901234567890\n";
  const std::string split_crlf = "5 18446744073709551615\r\n";
  std::string text;
  for (const size_t boundary : {kBlock, 2 * kBlock}) {
    while (text.size() + 200 <= boundary) AppendRandomLine(rng, ids, &text);
    // A comment filler puts the crafted line where the boundary splits it.
    const size_t start = boundary == kBlock
                             ? boundary - 7
                             : boundary - (split_crlf.size() - 1);
    text += '#';
    text.append(start - text.size() - 1, 'x');
    text += '\n';
    text += boundary == kBlock ? split_id : split_crlf;
  }
  while (text.size() < 2 * kBlock + kBlock / 2) {
    AppendRandomLine(rng, ids, &text);
  }
  text += "3 4";
  ASSERT_EQ(text.substr(kBlock - 7, split_id.size()), split_id);
  ASSERT_EQ(text[2 * kBlock - 1], '\r');
  ASSERT_EQ(text[2 * kBlock], '\n');
  const std::string path = WriteTemp("simpush_diff_blocks.txt", text);
  ExpectMatchesReference(text, path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simpush
