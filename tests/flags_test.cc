#include "util/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace pis {
namespace {

// argv helper: builds a mutable char** from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesAllTypes) {
  int i = 1;
  int64_t i64 = 2;
  double d = 0.5;
  bool b = false;
  std::string s = "x";
  FlagSet flags;
  flags.AddInt("count", &i, "");
  flags.AddInt64("big", &i64, "");
  flags.AddDouble("ratio", &d, "");
  flags.AddBool("verbose", &b, "");
  flags.AddString("name", &s, "");
  Argv argv({"prog", "--count=7", "--big", "9000000000", "--ratio=2.5",
             "--verbose", "--name", "hello"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv()).ok());
  EXPECT_EQ(i, 7);
  EXPECT_EQ(i64, 9000000000LL);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
}

TEST(FlagsTest, BoolVariants) {
  bool b = true;
  FlagSet flags;
  flags.AddBool("flag", &b, "");
  Argv off({"prog", "--flag=false"});
  ASSERT_TRUE(flags.Parse(off.argc(), off.argv()).ok());
  EXPECT_FALSE(b);
  Argv on({"prog", "--flag=1"});
  ASSERT_TRUE(flags.Parse(on.argc(), on.argv()).ok());
  EXPECT_TRUE(b);
}

TEST(FlagsTest, Errors) {
  int i = 0;
  FlagSet flags;
  flags.AddInt("count", &i, "");
  Argv unknown({"prog", "--bogus=1"});
  EXPECT_EQ(flags.Parse(unknown.argc(), unknown.argv()).code(),
            StatusCode::kInvalidArgument);
  Argv bad_value({"prog", "--count=abc"});
  EXPECT_EQ(flags.Parse(bad_value.argc(), bad_value.argv()).code(),
            StatusCode::kInvalidArgument);
  Argv missing({"prog", "--count"});
  EXPECT_EQ(flags.Parse(missing.argc(), missing.argv()).code(),
            StatusCode::kInvalidArgument);
  Argv positional({"prog", "stray"});
  EXPECT_EQ(flags.Parse(positional.argc(), positional.argv()).code(),
            StatusCode::kInvalidArgument);
  // A bare unknown flag in last place is unknown, not missing its value.
  Argv bare_unknown({"prog", "--bogus"});
  Status bare = flags.Parse(bare_unknown.argc(), bare_unknown.argv());
  EXPECT_EQ(bare.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bare.message().find("unknown flag --bogus"), std::string::npos)
      << bare.ToString();
}

TEST(FlagsTest, HelpReturnsAlreadyExists) {
  FlagSet flags;
  Argv help({"prog", "--help"});
  EXPECT_EQ(flags.Parse(help.argc(), help.argv()).code(),
            StatusCode::kAlreadyExists);
}

TEST(FlagsTest, UsageListsFlagsWithDefaults) {
  int i = 42;
  FlagSet flags;
  flags.AddInt("count", &i, "how many");
  std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
}

}  // namespace
}  // namespace pis
