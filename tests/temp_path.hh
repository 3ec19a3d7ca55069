/**
 * @file
 * Per-test scratch files. ctest runs every discovered test (each
 * AllVersions/ instance too) as its own process, in parallel, so a
 * fixed name under ::testing::TempDir() is shared by every test that
 * picks it — one test's image gets overwritten or removed by another
 * mid-read. A TempPath is unique to the running test and process and
 * is removed when it goes out of scope.
 */

#ifndef UPR_TESTS_TEMP_PATH_HH
#define UPR_TESTS_TEMP_PATH_HH

#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace upr::test
{

class TempPath
{
  public:
    /** @p name tells this file apart from the test's other files. */
    explicit TempPath(const std::string &name)
    {
        const ::testing::TestInfo *t =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string test = t == nullptr
                               ? std::string("no-test")
                               : std::string(t->test_suite_name()) +
                                     "." + t->name();
        for (char &c : test) {
            if (c == '/')
                c = '_';
        }
        path_ = ::testing::TempDir();
        if (!path_.empty() && path_.back() != '/')
            path_ += '/';
        path_ += test + "." + std::to_string(::getpid()) + "." + name;
    }

    ~TempPath() { std::remove(path_.c_str()); }

    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return path_; }
    const char *c_str() const { return path_.c_str(); }
    operator const std::string &() const { return path_; }

  private:
    std::string path_;
};

} // namespace upr::test

#endif // UPR_TESTS_TEMP_PATH_HH
