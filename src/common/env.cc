#include "common/env.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"

extern "C" char **environ;

namespace nc::common
{

namespace
{

/** Every environment variable the simulator reads. Keep sorted. */
constexpr const char *kKnown[] = {"NC_FAULTS", "NC_SIMD",
                                  "NC_THREADS"};

size_t
editDistance(const std::string &a, const char *b)
{
    size_t lb = std::strlen(b);
    std::vector<size_t> prev(lb + 1), cur(lb + 1);
    for (size_t j = 0; j <= lb; ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= lb; ++j)
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (a[i - 1] != b[j - 1])});
        std::swap(prev, cur);
    }
    return prev[lb];
}

} // namespace

void
checkEnvOrDie()
{
    for (char **e = environ; e && *e; ++e) {
        const char *entry = *e;
        const char *eq = std::strchr(entry, '=');
        std::string name(entry, eq ? static_cast<size_t>(eq - entry)
                                   : std::strlen(entry));
        if (name.rfind("NC_", 0) != 0)
            continue;
        if (std::any_of(std::begin(kKnown), std::end(kKnown),
                        [&](const char *k) { return name == k; }))
            continue;
        size_t best = SIZE_MAX;
        const char *hint = kKnown[0];
        for (const char *k : kKnown) {
            size_t d = editDistance(name, k);
            if (d < best) {
                best = d;
                hint = k;
            }
        }
        std::string known;
        for (const char *k : kKnown) {
            if (!known.empty())
                known += ", ";
            known += k;
        }
        nc_fatal("unknown environment variable %s (did you mean %s? "
                 "known: %s)",
                 name.c_str(), hint, known.c_str());
    }
}

void
checkEnvOnce()
{
    static std::once_flag flag;
    std::call_once(flag, checkEnvOrDie);
}

} // namespace nc::common
