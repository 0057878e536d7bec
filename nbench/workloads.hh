/**
 * @file
 * The benchmark's workloads and the per-run state they report into.
 *
 * Host numbers (wall or CPU time of the simulator) and modeled
 * numbers (what the simulated chip would take) are kept apart: modeled
 * ones are recorded with Run::addModeled (the "model.*" values, the
 * lockstep cycle count and the errors against the paper) and printed
 * in their own group; every other timing is host time.
 */

#ifndef NC_NBENCH_WORKLOADS_HH
#define NC_NBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hh"

namespace nc::nbench
{

/** Where a metric goes: the untraced result, the traced result, or
 * only the printed lines. */
enum class Kind { EndToEnd, PerLayer, Printed };

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    Kind kind = Kind::Printed;
    /** What the simulated chip would take, not host time. */
    bool modeled = false;
};

/** One benchmark process: its arguments and everything it found. */
class Run
{
  public:
    Run(std::string workload_, uint64_t seed_, double seconds_,
        bool trace_, unsigned nproc_, unsigned threads_);

    const std::string workload;
    const uint64_t seed;
    const double seconds;
    const bool trace;
    const unsigned nproc;
    /** Engine worker threads (<= nproc). */
    const unsigned threads;
    Tracer tracer;
    /** Directory for state shared by the runs of one build tree
     * (empty: none). */
    std::string stateDir;

    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;

    void add(Kind kind, const std::string &name, double value,
             const std::string &unit);
    void addModeled(Kind kind, const std::string &name, double value,
                    const std::string &unit);
    /**
     * Print and record a timing: its median as @p name (of @p kind)
     * and, on the printed lines, the sample count, quartiles and tail
     * percentile.
     */
    void timing(Kind kind, const std::string &name,
                const std::vector<double> &samples,
                const std::string &unit);
    /** A correctness check: on failure print why and mark the run. */
    void check(bool ok, const std::string &what);
    /** Count @p n attempted operations, @p bad of them failed. */
    void count(uint64_t n, uint64_t bad);
};

void runInception75Stream(Run &run);
void runBatchnetResident(Run &run);
void runBatchnetServeOpen(Run &run);
void runInception299Analytic(Run &run);

} // namespace nc::nbench

#endif // NC_NBENCH_WORKLOADS_HH
