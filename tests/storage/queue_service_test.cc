#include "storage/queue_service.h"

#include <gtest/gtest.h>

namespace skyrise::storage {
namespace {

class QueueServiceTest : public ::testing::Test {
 protected:
  sim::SimEnvironment env_{3};
  QueueService queue_{&env_};
};

TEST_F(QueueServiceTest, BarrierReleasesAllWhenFull) {
  int released = 0;
  queue_.Arrive("b", 3, [&] { ++released; });
  queue_.Arrive("b", 3, [&] { ++released; });
  env_.Run();
  EXPECT_EQ(released, 0);  // Two of three: still blocked.
  queue_.Arrive("b", 3, [&] { ++released; });
  env_.Run();
  EXPECT_EQ(released, 3);
}

TEST_F(QueueServiceTest, BarrierReleaseTakesPollLatency) {
  SimTime released_at = 0;
  queue_.Arrive("b", 1, [&] { released_at = env_.now(); });
  env_.Run();
  EXPECT_GE(released_at, Millis(8));
}

TEST_F(QueueServiceTest, BarriersAreIndependent) {
  int a = 0, b = 0;
  queue_.Arrive("a", 1, [&] { ++a; });
  queue_.Arrive("b", 2, [&] { ++b; });
  env_.Run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
}

TEST_F(QueueServiceTest, BarrierReusableAfterRelease) {
  int first = 0, second = 0;
  queue_.Arrive("b", 1, [&] { ++first; });
  env_.Run();
  queue_.Arrive("b", 1, [&] { ++second; });
  env_.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace skyrise::storage
