/**
 * @file
 * Test helper: set or unset environment variables for one scope and
 * restore every touched variable on destruction, so no test's
 * environment leaks into the next.
 */

#ifndef NETCRAFTER_TESTS_HARNESS_SCOPED_ENV_HH
#define NETCRAFTER_TESTS_HARNESS_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace netcrafter::test {

class ScopedEnv
{
  public:
    ScopedEnv() = default;
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    ~ScopedEnv()
    {
        for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
            if (it->second)
                ::setenv(it->first.c_str(), it->second->c_str(), 1);
            else
                ::unsetenv(it->first.c_str());
        }
    }

    void
    set(const char *name, const char *value)
    {
        save(name);
        ::setenv(name, value, 1);
    }

    void
    unset(const char *name)
    {
        save(name);
        ::unsetenv(name);
    }

  private:
    void
    save(const char *name)
    {
        const char *old = std::getenv(name);
        saved_.emplace_back(name, old != nullptr
                                      ? std::optional<std::string>(old)
                                      : std::nullopt);
    }

    std::vector<std::pair<std::string, std::optional<std::string>>>
        saved_;
};

} // namespace netcrafter::test

#endif // NETCRAFTER_TESTS_HARNESS_SCOPED_ENV_HH
