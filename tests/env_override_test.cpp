// Pins the DAISY_OPTIMIZER override: well-formed values override
// DaisyOptions (ApplyEnvOverrides, src/clean/daisy_engine.cc) and the
// default of a bare Planner (src/plan/planner.cc); malformed values are
// rejected by the same parser, ApplyOptimizerEnv, with a structured-log
// warning (JSON on stderr, common/logger.h) naming the variable and the bad
// value, and the setting keeps its previous value — never a silent drop,
// never a garbage parse.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "clean/daisy_engine.h"
#include "plan/planner.h"
#include "storage/database.h"

namespace daisy {
namespace {

// The overrides read a process-global env var; save/clear it around each
// test so results do not depend on the caller's environment (e.g. the CI
// ablation leg exporting DAISY_OPTIMIZER for the whole suite).
class EnvOverrideTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* v = std::getenv("DAISY_OPTIMIZER")) saved_ = v;
    ::unsetenv("DAISY_OPTIMIZER");
  }

  void TearDown() override {
    if (saved_.has_value()) {
      ::setenv("DAISY_OPTIMIZER", saved_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv("DAISY_OPTIMIZER");
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

  // Constructs a bare Planner with DAISY_OPTIMIZER=`value` set, capturing
  // stderr; returns the planner's optimizer default.
  bool PlannerWith(const char* value, std::string* err) {
    ::setenv("DAISY_OPTIMIZER", value, /*overwrite=*/1);
    ::testing::internal::CaptureStderr();
    Database db;
    const Planner planner(&db);
    *err = ::testing::internal::GetCapturedStderr();
    ::unsetenv("DAISY_OPTIMIZER");
    return planner.optimizer();
  }

  std::optional<std::string> saved_;
};

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
    EXPECT_NE(err.find(std::string("\"") + value + "\""), std::string::npos)
        << "DAISY_OPTIMIZER=" << value << " produced: " << err;
  }
}

// A bare Planner (QueryExecutor's) reads the variable through the same
// strict parser as ApplyEnvOverrides: a malformed value keeps the optimizer
// on and is logged, never read as "on" in silence.
TEST_F(EnvOverrideTest, BarePlannerWarnsOnMalformedValue) {
  std::string err;
  EXPECT_TRUE(PlannerWith("off", &err));
  EXPECT_NE(err.find("\"level\":\"warn\""), std::string::npos) << err;
  EXPECT_NE(err.find("DAISY_OPTIMIZER"), std::string::npos) << err;
  EXPECT_NE(err.find("\"off\""), std::string::npos) << err;
}

TEST_F(EnvOverrideTest, BarePlannerHonorsWellFormedValues) {
  std::string err;
  EXPECT_FALSE(PlannerWith("0", &err));
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_FALSE(PlannerWith("false", &err));
  EXPECT_TRUE(PlannerWith("1", &err));
  EXPECT_TRUE(PlannerWith("true", &err));
  EXPECT_TRUE(err.empty()) << err;
  Database db;
  EXPECT_TRUE(Planner(&db).optimizer());  // unset: on
  // The engine's constructor takes the setting as given.
  ::setenv("DAISY_OPTIMIZER", "1", /*overwrite=*/1);
  EXPECT_FALSE(Planner(&db, false).optimizer());
  ::unsetenv("DAISY_OPTIMIZER");
}

TEST_F(EnvOverrideTest, ValidValueDoesNotWarn) {
  DaisyOptions options;
  const std::string err = ApplyWith("DAISY_OPTIMIZER", "0", &options);
  EXPECT_FALSE(options.optimizer);
  EXPECT_EQ(err.find("\"level\":\"warn\""), std::string::npos) << err;
}

TEST_F(EnvOverrideTest, NoVariablesSetIsANoOp) {
  DaisyOptions options;
  const DaisyOptions defaults;
  ::testing::internal::CaptureStderr();
  ApplyEnvOverrides(&options);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(options.optimizer, defaults.optimizer);
  EXPECT_TRUE(err.empty()) << err;
}

}  // namespace
}  // namespace daisy
