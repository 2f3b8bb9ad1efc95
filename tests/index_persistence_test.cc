// Tests for READS / SLING index persistence: save, load, query parity,
// and fingerprint mismatch rejection.

#include <filesystem>
#include <string>

#include "baselines/prsim.h"
#include "baselines/reads.h"
#include "baselines/sling.h"
#include "graph/generators.h"
#include "gtest/gtest.h"

namespace simpush {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class IndexPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = GenerateChungLu(300, 1800, 2.5, /*seed=*/21);
    ASSERT_TRUE(graph.ok());
    graph_ = std::move(*graph);
  }
  Graph graph_;
};

TEST_F(IndexPersistenceTest, ReadsSaveBeforePrepareFails) {
  Reads reads(graph_, ReadsOptions{});
  auto status = reads.SaveIndex(TempPath("reads_noprep.idx"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(IndexPersistenceTest, ReadsRoundTripQueryParity) {
  const std::string path = TempPath("reads_roundtrip.idx");
  ReadsOptions options;
  options.num_walks = 50;
  options.max_depth = 5;

  Reads original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  Reads loaded(graph_, options);
  ASSERT_TRUE(loaded.LoadIndex(path).ok());

  for (NodeId u : {0u, 7u, 100u, 299u}) {
    auto a = original.Query(u);
    auto b = loaded.Query(u);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t v = 0; v < a->size(); ++v) {
      ASSERT_DOUBLE_EQ((*a)[v], (*b)[v]) << "u=" << u << " v=" << v;
    }
  }
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, ReadsRejectsWrongGraph) {
  const std::string path = TempPath("reads_wronggraph.idx");
  ReadsOptions options;
  options.num_walks = 10;
  options.max_depth = 3;
  Reads original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  auto other = GenerateErdosRenyi(100, 500, 5);
  ASSERT_TRUE(other.ok());
  Reads loaded(*other, options);
  EXPECT_EQ(loaded.LoadIndex(path).code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, ReadsRejectsWrongOptions) {
  const std::string path = TempPath("reads_wrongopts.idx");
  ReadsOptions options;
  options.num_walks = 10;
  options.max_depth = 3;
  Reads original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  ReadsOptions different = options;
  different.max_depth = 4;
  Reads loaded(graph_, different);
  EXPECT_EQ(loaded.LoadIndex(path).code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, SlingSaveBeforePrepareFails) {
  Sling sling(graph_, SlingOptions{});
  auto status = sling.SaveIndex(TempPath("sling_noprep.idx"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(IndexPersistenceTest, SlingRoundTripQueryParity) {
  const std::string path = TempPath("sling_roundtrip.idx");
  SlingOptions options;
  options.epsilon = 0.1;
  options.eta_samples = 100;

  Sling original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  Sling loaded(graph_, options);
  ASSERT_TRUE(loaded.LoadIndex(path).ok());
  EXPECT_GT(loaded.IndexBytes(), 0u);

  for (NodeId u : {3u, 42u, 250u}) {
    auto a = original.Query(u);
    auto b = loaded.Query(u);
    ASSERT_TRUE(a.ok() && b.ok());
    for (size_t v = 0; v < a->size(); ++v) {
      ASSERT_DOUBLE_EQ((*a)[v], (*b)[v]) << "u=" << u << " v=" << v;
    }
  }
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, SlingRejectsWrongEpsilon) {
  const std::string path = TempPath("sling_wrongeps.idx");
  SlingOptions options;
  options.epsilon = 0.1;
  options.eta_samples = 50;
  Sling original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  SlingOptions different = options;
  different.epsilon = 0.05;
  Sling loaded(graph_, different);
  EXPECT_EQ(loaded.LoadIndex(path).code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, CrossFormatLoadRejected) {
  // A READS index must not load as a SLING index (magic check).
  const std::string path = TempPath("cross_format.idx");
  ReadsOptions options;
  options.num_walks = 10;
  options.max_depth = 3;
  Reads reads(graph_, options);
  ASSERT_TRUE(reads.Prepare().ok());
  ASSERT_TRUE(reads.SaveIndex(path).ok());

  Sling sling(graph_, SlingOptions{});
  EXPECT_EQ(sling.LoadIndex(path).code(), StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, LoadFromMissingFileFails) {
  Reads reads(graph_, ReadsOptions{});
  EXPECT_EQ(reads.LoadIndex(TempPath("missing_reads.idx")).code(),
            StatusCode::kIOError);
}


TEST_F(IndexPersistenceTest, PRSimRoundTripQueryParity) {
  const std::string path = TempPath("prsim_roundtrip.idx");
  PRSimOptions options;
  options.epsilon = 0.1;
  options.eta_samples = 50;

  PRSim original(graph_, options);
  ASSERT_TRUE(original.Prepare().ok());
  ASSERT_TRUE(original.SaveIndex(path).ok());

  PRSim loaded(graph_, options);
  ASSERT_TRUE(loaded.LoadIndex(path).ok());
  EXPECT_EQ(loaded.NumHubs(), original.NumHubs());

  for (NodeId u : {1u, 77u, 200u}) {
    auto a = original.Query(u);
    auto b = loaded.Query(u);
    ASSERT_TRUE(a.ok() && b.ok());
    for (size_t v = 0; v < a->size(); ++v) {
      ASSERT_DOUBLE_EQ((*a)[v], (*b)[v]) << "u=" << u << " v=" << v;
    }
  }
  std::filesystem::remove(path);
}

TEST_F(IndexPersistenceTest, PRSimSaveBeforePrepareFails) {
  PRSim prsim(graph_, PRSimOptions{});
  EXPECT_EQ(prsim.SaveIndex(TempPath("prsim_noprep.idx")).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace simpush
