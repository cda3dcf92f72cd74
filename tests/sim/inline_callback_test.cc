#include "src/sim/inline_callback.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace taichi::sim {
namespace {

TEST(InlineCallbackTest, DefaultIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  InlineCallback null_cb(nullptr);
  EXPECT_FALSE(static_cast<bool>(null_cb));
}

TEST(InlineCallbackTest, InvokesCapturedLambda) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineCallback c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MoveOnlyCaptureWorks) {
  // std::function cannot hold this; the event queue must.
  auto owned = std::make_unique<int>(41);
  int result = 0;
  InlineCallback cb([p = std::move(owned), &result] { result = *p + 1; });
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(result, 42);
}

TEST(InlineCallbackTest, NonTrivialCaptureDestroyedExactlyOnce) {
  auto tracked = std::make_shared<int>(7);
  std::weak_ptr<int> watch = tracked;
  {
    InlineCallback cb([keep = std::move(tracked)] { (void)*keep; });
    EXPECT_EQ(watch.use_count(), 1);
    InlineCallback moved(std::move(cb));
    EXPECT_EQ(watch.use_count(), 1);  // Moved, not copied.
    moved();
    EXPECT_EQ(watch.use_count(), 1);  // Invocation does not destroy.
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineCallbackTest, AssignNullptrDestroysCapture) {
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracked;
  InlineCallback cb([keep = std::move(tracked)] { (void)keep; });
  cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(watch.expired());
}

TEST(InlineCallbackTest, HotPathCapturesStayInline) {
  // Every capture must fit the inline buffer, the only storage there is;
  // this is the compile-time contract behind the zero-allocation guarantee
  // (see bench_micro's allocation hook). Packets wait in the arena, so hot
  // captures carry a 4-byte handle instead of an 80-byte IoPacket copy,
  // which is what lets kInlineBytes stay at 48.
  struct HandleShapedCapture {
    void* self;
    uint32_t queue;
    uint32_t handle;
    uint64_t now;
  };
  static_assert(sizeof(HandleShapedCapture) <= InlineCallback::kInlineBytes);
  struct KernelShapedCapture {
    void* self;
    int id;
    bool timeout;
  };
  static_assert(sizeof(KernelShapedCapture) <= InlineCallback::kInlineBytes);

  // The boundary: a 48-byte trivially copyable capture is stored inline
  // and survives a move intact; a 56-byte one does not compile.
  std::array<uint64_t, 6> fits{5, 0, 0, 0, 0, 37};
  std::array<uint64_t, 7> too_big{};
  auto at_limit = [fits] { return fits[0] + fits[5]; };
  auto over_limit = [too_big] { return too_big[0]; };
  static_assert(sizeof(at_limit) == 48 && std::is_trivially_copyable_v<decltype(at_limit)>);
  static_assert(sizeof(over_limit) == 56 && std::is_trivially_copyable_v<decltype(over_limit)>);
  static_assert(std::is_constructible_v<InlineCallback, decltype(at_limit)>);
  static_assert(!std::is_constructible_v<InlineCallback, decltype(over_limit)>);
  InlineFunction<uint64_t()> f(at_limit);
  InlineFunction<uint64_t()> moved(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(moved(), 42u);
}

TEST(InlineFunctionTest, CarriesArgumentsAndReturnValue) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  ASSERT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(19, 23), 42);
}

TEST(InlineFunctionTest, BatchSinkShapedSignature) {
  // The DP batch-sink shape: pointer + count + timestamp, stateful capture.
  uint64_t total = 0;
  InlineFunction<void(const uint32_t*, size_t, uint64_t)> sink(
      [&total](const uint32_t* batch, size_t count, uint64_t ts) {
        for (size_t i = 0; i < count; ++i) {
          total += batch[i];
        }
        total += ts;
      });
  const uint32_t batch[3] = {1, 2, 3};
  sink(batch, 3, 100);
  EXPECT_EQ(total, 106u);
}

TEST(InlineFunctionTest, MovePreservesNonVoidSignature) {
  auto boxed = std::make_unique<int>(7);
  InlineFunction<int()> f([p = std::move(boxed)] { return *p * 6; });
  InlineFunction<int()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(g(), 42);
}

TEST(FunctionRefTest, BindsLambdasFunctorsAndStaysTwoWords) {
  // The non-owning view the hot paths pass instead of std::function: it must
  // bind any callable by reference, stay trivially copyable, and never grow
  // past an object pointer + an invoke pointer.
  static_assert(sizeof(FunctionRef<void(size_t)>) <= 2 * sizeof(void*));
  static_assert(std::is_trivially_copyable_v<FunctionRef<void(size_t)>>);

  int sum = 0;
  auto lambda = [&sum](size_t i) { sum += static_cast<int>(i); };
  FunctionRef<void(size_t)> ref = lambda;
  EXPECT_TRUE(static_cast<bool>(ref));
  ref(40);
  ref(2);
  EXPECT_EQ(sum, 42);

  struct Doubler {
    int operator()(int x) const { return 2 * x; }
  };
  Doubler d;
  FunctionRef<int(int)> dref = d;
  EXPECT_EQ(dref(21), 42);

  // Copies alias the same underlying callable.
  FunctionRef<void(size_t)> copy = ref;
  copy(8);
  EXPECT_EQ(sum, 50);
}

TEST(FunctionRefTest, DefaultConstructedIsFalse) {
  FunctionRef<void()> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(InlineCallbackTest, SelfRescheduleStyleReuse) {
  // The repeating-timer pattern: invoke, move back, invoke again.
  int hits = 0;
  InlineCallback slot([&hits] { ++hits; });
  for (int i = 0; i < 3; ++i) {
    InlineCallback fired(std::move(slot));
    fired();
    slot = std::move(fired);
  }
  EXPECT_EQ(hits, 3);
}

}  // namespace
}  // namespace taichi::sim
