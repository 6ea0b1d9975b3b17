#include "util/dense_id_set.h"

#include <gtest/gtest.h>

namespace bsub::util {
namespace {

TEST(DenseIdSet, InsertContainsErase) {
  DenseIdSet s(130);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.insert(0));
  EXPECT_FALSE(s.insert(0));  // already present
  EXPECT_TRUE(s.insert(129));
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(128));
  s.erase(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.contains(129));
  EXPECT_TRUE(s.insert(0));  // re-insertable after erase
}

TEST(DenseIdSet, GrowsPastUniverseAndReadsPastEndAsAbsent) {
  DenseIdSet s;  // empty universe
  EXPECT_FALSE(s.contains(5));
  s.erase(5);  // no-op past the end
  EXPECT_TRUE(s.insert(200));
  EXPECT_TRUE(s.contains(200));
  EXPECT_FALSE(s.contains(199));
  EXPECT_FALSE(s.contains(std::uint64_t{1} << 40));
}

}  // namespace
}  // namespace bsub::util
