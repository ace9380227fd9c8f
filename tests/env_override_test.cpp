// Pins ApplyEnvOverrides (src/clean/daisy_engine.cc): well-formed values
// override DaisyOptions, malformed values are rejected with a structured-
// log warning (JSON on stderr, common/logger.h) naming the variable and
// the bad value, and the option keeps its previous setting — never a
// silent drop, never a garbage parse.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"

namespace daisy {
namespace {

// The overrides read process-global env vars; save/clear them around each
// test so results do not depend on the caller's environment (e.g. the CI
// ablation leg exporting DAISY_DETECT_THREADS for the whole suite).
class EnvOverrideTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[] = {
      "DAISY_OPTIMIZER", "DAISY_DETECT_THREADS", "DAISY_QUERY_THREADS"};

  void SetUp() override {
    for (const char* var : kVars) {
      if (const char* v = std::getenv(var)) saved_[var] = v;
      ::unsetenv(var);
    }
  }

  void TearDown() override {
    for (const char* var : kVars) {
      auto it = saved_.find(var);
      if (it == saved_.end()) {
        ::unsetenv(var);
      } else {
        ::setenv(var, it->second.c_str(), /*overwrite=*/1);
      }
    }
  }

  // Runs ApplyEnvOverrides with `var`=`value` set, capturing stderr.
  std::string ApplyWith(const char* var, const char* value,
                        DaisyOptions* options) {
    ::setenv(var, value, /*overwrite=*/1);
    ::testing::internal::CaptureStderr();
    ApplyEnvOverrides(options);
    ::unsetenv(var);
    return ::testing::internal::GetCapturedStderr();
  }

  std::map<std::string, std::string> saved_;
};

constexpr const char* EnvOverrideTest::kVars[];

TEST_F(EnvOverrideTest, ValidThreadCountsOverride) {
  DaisyOptions options;
  ApplyWith("DAISY_DETECT_THREADS", "4", &options);
  EXPECT_EQ(options.detect_threads, 4u);
  ApplyWith("DAISY_QUERY_THREADS", "8", &options);
  EXPECT_EQ(options.query_threads, 8u);
}

TEST_F(EnvOverrideTest, ValidBoolsOverride) {
  DaisyOptions options;
  ApplyWith("DAISY_OPTIMIZER", "0", &options);
  EXPECT_FALSE(options.optimizer);
  ApplyWith("DAISY_OPTIMIZER", "true", &options);
  EXPECT_TRUE(options.optimizer);
  ApplyWith("DAISY_OPTIMIZER", "false", &options);
  EXPECT_FALSE(options.optimizer);
  ApplyWith("DAISY_OPTIMIZER", "1", &options);
  EXPECT_TRUE(options.optimizer);
}

TEST_F(EnvOverrideTest, MalformedThreadCountWarnsAndKeepsSetting) {
  const struct {
    const char* var;
    const char* value;
  } cases[] = {
      {"DAISY_DETECT_THREADS", "banana"},
      {"DAISY_DETECT_THREADS", "-4"},
      {"DAISY_DETECT_THREADS", "0"},
      {"DAISY_DETECT_THREADS", "4x"},
      {"DAISY_DETECT_THREADS", ""},
      {"DAISY_QUERY_THREADS", "not-a-number"},
      {"DAISY_QUERY_THREADS", "-1"},
      {"DAISY_QUERY_THREADS", "999999999999999999999999"},
  };
  for (const auto& c : cases) {
    DaisyOptions options;
    options.detect_threads = 3;
    options.query_threads = 5;
    const std::string err = ApplyWith(c.var, c.value, &options);
    EXPECT_EQ(options.detect_threads, 3u) << c.var << "=" << c.value;
    EXPECT_EQ(options.query_threads, 5u) << c.var << "=" << c.value;
    EXPECT_NE(err.find("\"level\":\"warn\""), std::string::npos)
        << c.var << "=" << c.value << " produced: " << err;
    EXPECT_NE(err.find(c.var), std::string::npos)
        << c.var << "=" << c.value << " produced: " << err;
    EXPECT_NE(err.find(std::string("\"") + c.value + "\""),
              std::string::npos)
        << c.var << "=" << c.value << " produced: " << err;
  }
}

TEST_F(EnvOverrideTest, MalformedBoolWarnsAndKeepsSetting) {
  const char* bad_values[] = {"maybe", "2", "yes", "TRUE", ""};
  for (const char* value : bad_values) {
    DaisyOptions options;
    options.optimizer = true;
    const std::string err = ApplyWith("DAISY_OPTIMIZER", value, &options);
    EXPECT_TRUE(options.optimizer) << "DAISY_OPTIMIZER=" << value;
    EXPECT_NE(err.find("\"level\":\"warn\""), std::string::npos)
        << "DAISY_OPTIMIZER=" << value << " produced: " << err;
    EXPECT_NE(err.find("DAISY_OPTIMIZER"), std::string::npos)
        << "DAISY_OPTIMIZER=" << value << " produced: " << err;
  }
}

TEST_F(EnvOverrideTest, ValidValueDoesNotWarn) {
  DaisyOptions options;
  const std::string err = ApplyWith("DAISY_DETECT_THREADS", "2", &options);
  EXPECT_EQ(options.detect_threads, 2u);
  EXPECT_EQ(err.find("\"level\":\"warn\""), std::string::npos) << err;
}

TEST_F(EnvOverrideTest, NoVariablesSetIsANoOp) {
  DaisyOptions options;
  const DaisyOptions defaults;
  ::testing::internal::CaptureStderr();
  ApplyEnvOverrides(&options);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(options.detect_threads, defaults.detect_threads);
  EXPECT_EQ(options.query_threads, defaults.query_threads);
  EXPECT_EQ(options.optimizer, defaults.optimizer);
  EXPECT_TRUE(err.empty()) << err;
}

}  // namespace
}  // namespace daisy
