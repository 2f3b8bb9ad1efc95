// Tests for the SPG1 binary graph format.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/binary_io.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simpush {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryIoTest, RoundTripPreservesGraph) {
  Graph original = testing_util::RandomGraph(200, 1500, 701);
  const std::string path = TempPath("roundtrip.spg");
  ASSERT_TRUE(SaveBinaryGraph(original, path).ok());
  auto reloaded = LoadBinaryGraph(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->num_nodes(), original.num_nodes());
  ASSERT_EQ(reloaded->num_edges(), original.num_edges());
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    auto a = original.OutNeighbors(v);
    auto b = reloaded->OutNeighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  EXPECT_TRUE(reloaded->Validate().ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, PreservesSymmetricFlag) {
  auto g = GenerateErdosRenyi(30, 80, 3, /*undirected=*/true);
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("symmetric.spg");
  ASSERT_TRUE(SaveBinaryGraph(*g, path).ok());
  auto reloaded = LoadBinaryGraph(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->is_symmetric());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyGraphRoundTrips) {
  GraphBuilder builder(5);
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("empty.spg");
  ASSERT_TRUE(SaveBinaryGraph(*g, path).ok());
  auto reloaded = LoadBinaryGraph(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_nodes(), 5u);
  EXPECT_EQ(reloaded->num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsMissingFile) {
  EXPECT_FALSE(LoadBinaryGraph("/nonexistent/g.spg").ok());
}

TEST(BinaryIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("badmagic.spg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE this is not a graph file at all, padding padding";
  }
  auto result = LoadBinaryGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  Graph g = testing_util::RandomGraph(100, 800, 703);
  const std::string full_path = TempPath("full.spg");
  ASSERT_TRUE(SaveBinaryGraph(g, full_path).ok());
  // Truncate to half size.
  std::ifstream in(full_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string cut_path = TempPath("cut.spg");
  {
    std::ofstream out(cut_path, std::ios::binary);
    out.write(bytes.data(), bytes.size() / 2);
  }
  EXPECT_FALSE(LoadBinaryGraph(cut_path).ok());
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// Writes an SPG1 file field by field, so a test can state exactly the
// header and body a corrupt file holds.
void WriteSpg(const std::string& path, uint32_t n, uint64_t m,
              const std::vector<uint64_t>& offsets,
              const std::vector<uint32_t>& targets) {
  std::ofstream out(path, std::ios::binary);
  const uint32_t flags = 0;
  out.write("SPG1", 4);
  out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(offsets.data()),
            offsets.size() * sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(targets.data()),
            targets.size() * sizeof(uint32_t));
}

TEST(BinaryIoTest, RejectsHeaderLargerThanFile) {
  // 36 bytes whose header claims m = 2^62 edges, with offsets {0, m}
  // that agree with it: the loader must not size its arrays from it.
  const std::string path = TempPath("huge_header.spg");
  const uint64_t m = uint64_t{1} << 62;
  WriteSpg(path, 1, m, {0, m}, {});
  auto result = LoadBinaryGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsUnsortedRow) {
  // Node 0's row {2, 1} is not ascending; SaveBinaryGraph never writes
  // one, so the file is corrupt.
  const std::string path = TempPath("unsorted.spg");
  WriteSpg(path, 3, 2, {0, 2, 2, 2}, {2, 1});
  auto result = LoadBinaryGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simpush
