// Per-test scratch directories. CTest runs every gtest case as its own
// process (gtest_discover_tests), so under `ctest -j` many cases of one
// binary run at once; a fixed temp path shared between cases lets them
// truncate or delete each other's files. TestTmpDir names its directory
// after the running test and the process id, so no two live cases share it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace wlc::test {

/// An empty directory private to the running test case,
/// <temp>/wlc_<Suite>.<Test>[.<tag>]_<pid>; construct it inside a test body.
/// Created (emptied if a crashed run left it behind) on construction;
/// removed with its contents on destruction. `tag` tells apart several
/// directories in one test.
class TestTmpDir {
 public:
  explicit TestTmpDir(std::string_view tag = {}) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "wlc_" + std::string(info->test_suite_name()) + "." + info->name();
    if (!tag.empty()) name += "." + std::string(tag);
    name += "_" + std::to_string(::getpid());
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestTmpDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestTmpDir(const TestTmpDir&) = delete;
  TestTmpDir& operator=(const TestTmpDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// path() / `file`, as a string for the APIs that take file names.
  std::string file(std::string_view file) const { return (path_ / file).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace wlc::test
