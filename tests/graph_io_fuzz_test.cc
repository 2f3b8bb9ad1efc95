// Adversarial-input tests for the edge-list parser: malformed lines,
// odd whitespace, comment handling, id compaction, and size limits.
// Parsers are the classic crash surface of graph tooling; every case
// here must produce either a clean graph or a clean Status — never UB.

#include <string>

#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

using testing_util::LoadEdgeListText;

class MalformedLineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MalformedLineTest, RejectedWithCleanStatus) {
  auto graph = LoadEdgeListText(GetParam());
  // Must not crash; any Status is acceptable as long as a malformed
  // payload never silently parses to a non-empty edge set with
  // corrupted endpoints.
  if (graph.ok()) {
    EXPECT_TRUE(graph->Validate().ok());
  } else {
    EXPECT_FALSE(graph.status().message().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, MalformedLineTest,
    ::testing::Values(
        "1",                   // one token
        "1 2 3 4 5",           // too many tokens (extra ignored or error)
        "a b",                 // non-numeric
        "1 b",                 // half-numeric
        "-1 2",                // negative id
        "1.5 2",               // float id
        "999999999999999999999999 1",  // overflow
        "1 2\n\n\n3",          // blank lines then a dangling token
        "\x01\x02\x03",        // binary junk
        "1\t2\textra garbage here"));

// Exact expectations for the id grammar (graph_io.h): an id is unsigned
// decimal ending at whitespace or the end of the line. Each bad line
// sits on line 3, behind an edge and a comment, and the message names
// that line.
TEST(EdgeListGrammarTest, RejectsNonDecimalIdsNamingTheLine) {
  for (const std::string bad :
       {"-1 2", "+1 2", "1 2.5", "1 -2", "1 +2", "1.5 2", "0x10 1", "1,2",
        "1 2,", "1 2abc", "1", "1 ", "1 # 2", "18446744073709551616 1",
        "1 99999999999999999999"}) {
    auto graph = LoadEdgeListText("0 1\n# comment\n" + bad + "\n4 5\n");
    ASSERT_FALSE(graph.ok()) << "accepted: '" << bad << "'";
    EXPECT_EQ(graph.status().code(), StatusCode::kIOError);
    EXPECT_NE(graph.status().message().find("line 3:"), std::string::npos)
        << graph.status().message();
    EXPECT_NE(graph.status().message().find("'" + bad + "'"),
              std::string::npos)
        << graph.status().message();
  }
}

TEST(EdgeListGrammarTest, MalformedLineEchoIsCappedAt80Bytes) {
  const std::string bad = "1 x" + std::string(500, 'y');
  auto graph = LoadEdgeListText(bad);
  ASSERT_FALSE(graph.ok());
  const std::string& message = graph.status().message();
  EXPECT_NE(message.find("line 1:"), std::string::npos) << message;
  EXPECT_NE(message.find(bad.substr(0, 80)), std::string::npos) << message;
  EXPECT_EQ(message.find(bad.substr(0, 81)), std::string::npos) << message;
}

TEST(EdgeListGrammarTest, ExtremeIdsAndExtraColumnsAccepted) {
  // Leading zeros, both ends of the id range, and extra columns after
  // whitespace (SNAP weights, free text) are all valid.
  auto graph = LoadEdgeListText(
      "18446744073709551615 0 1.5\n"
      "007\t18446744073709551615\tweight=2 x\n"
      "0 7 \r\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 3u);  // UINT64_MAX -> 0, 0 -> 1, 7 -> 2
  EXPECT_EQ(graph->num_edges(), 3u);
  auto out2 = graph->OutNeighbors(2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0], 0u);
}

TEST(EdgeListParseTest, WhitespaceVariantsAllParse) {
  for (const std::string text :
       {"1 2\n3 4\n", "1\t2\n3\t4\n", "  1   2  \n\t3\t4\t\n",
        "1 2\r\n3 4\r\n", "1 2\n3 4"}) {
    auto graph = LoadEdgeListText(text);
    ASSERT_TRUE(graph.ok()) << "text: " << text;
    EXPECT_EQ(graph->num_edges(), 2u) << "text: " << text;
  }
}

TEST(EdgeListParseTest, CommentsAndBlankLinesSkipped) {
  const std::string text =
      "# SNAP-style header\n"
      "% LAW-style header\n"
      "\n"
      "10 20\n"
      "# trailing comment\n"
      "20 30\n";
  auto graph = LoadEdgeListText(text);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 2u);
  EXPECT_EQ(graph->num_nodes(), 3u) << "ids compacted to [0, 3)";
}

TEST(EdgeListParseTest, IdCompactionIsFirstAppearanceOrder) {
  auto graph = LoadEdgeListText("100 7\n7 100\n42 100\n");
  ASSERT_TRUE(graph.ok());
  // 100 -> 0, 7 -> 1, 42 -> 2.
  ASSERT_EQ(graph->num_nodes(), 3u);
  auto out0 = graph->OutNeighbors(0);
  ASSERT_EQ(out0.size(), 1u);
  EXPECT_EQ(out0[0], 1u);
  auto out2 = graph->OutNeighbors(2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0], 0u);
}

TEST(EdgeListParseTest, DedupesAndKeepsSelfLoops) {
  auto graph = LoadEdgeListText("1 2\n1 2\n3 3\n2 1\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 3u);  // (1,2) deduped, (3,3) kept
}

TEST(EdgeListParseTest, UndirectedDoublesEdges) {
  EdgeListOptions options;
  options.undirected = true;
  auto graph = LoadEdgeListText("1 2\n2 3\n", options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 4u);
  EXPECT_TRUE(graph->is_symmetric());
  for (NodeId v = 0; v < graph->num_nodes(); ++v) {
    EXPECT_EQ(graph->InDegree(v), graph->OutDegree(v));
  }
}

TEST(EdgeListParseTest, EmptyInputsYieldEmptyGraphOrError) {
  for (const std::string text : {"", "\n\n", "# only comments\n"}) {
    auto graph = LoadEdgeListText(text);
    if (graph.ok()) {
      EXPECT_EQ(graph->num_edges(), 0u);
    }
  }
}

TEST(EdgeListFileTest, MissingFileIsIOError) {
  auto graph = LoadEdgeList("/nonexistent_dir_xyz/graph.txt");
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kIOError);
}

// A directory opens but cannot be read: that is a read error, not an
// empty graph (a server pointed at a directory must not serve n=0).
TEST(EdgeListFileTest, DirectoryIsIOError) {
  auto graph = LoadEdgeList(::testing::TempDir());
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kIOError);
  graph = LoadGraphAnyFormat(::testing::TempDir());
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace simpush
