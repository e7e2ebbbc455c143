#include "src/util/status.h"

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad ratio");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad ratio");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad ratio");
}

TEST(StatusTest, FactoryFunctionsProduceMatchingCodes) {
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_NE(InvalidArgumentError("a"), InvalidArgumentError("b"));
  EXPECT_NE(InvalidArgumentError("a"), OutOfRangeError("a"));
}

TEST(StatusCodeNameTest, AllCodesNamed) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.status(), Status::Ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, ValueOrReturnsValueWhenOk) {
  StatusOr<int> v = 7;
  EXPECT_EQ(v.value_or(-1), 7);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> v = InternalError("boom");
  EXPECT_DEATH((void)v.value(), "CHECK failed");
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fail = []() -> Status { return InvalidArgumentError("inner"); };
  auto outer = [&]() -> Status {
    SDB_RETURN_IF_ERROR(fail());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

TEST(ReturnIfErrorTest, PassesThroughOk) {
  auto succeed = []() -> Status { return Status::Ok(); };
  auto outer = [&]() -> Status {
    SDB_RETURN_IF_ERROR(succeed());
    return Status::Ok();
  };
  EXPECT_TRUE(outer().ok());
}

}  // namespace
}  // namespace sdb
