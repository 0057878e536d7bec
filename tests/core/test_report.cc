/** @file Tests for the report printers and the stats dump. */

#include <sstream>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/report.hh"
#include "dnn/inception_v3.hh"

namespace
{

using namespace nc;

core::InferenceReport
smallReport()
{
    dnn::Network net;
    net.name = "tiny";
    net.stages.push_back(dnn::singleOpStage(
        "conv", dnn::conv("conv", 8, 8, 16, 3, 3, 8)));
    net.stages.push_back(dnn::singleOpStage(
        "pool", dnn::maxPool("pool", 8, 8, 8, 2, 2, 2)));
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    return core::Engine(opts).compile(net).report();
}

TEST(Report, StageTableListsEveryStageAndTotal)
{
    auto rep = smallReport();
    std::ostringstream os;
    core::printStageTable(os, rep);
    std::string s = os.str();
    EXPECT_NE(s.find("conv"), std::string::npos);
    EXPECT_NE(s.find("pool"), std::string::npos);
    EXPECT_NE(s.find("total"), std::string::npos);
}

TEST(Report, BreakdownCoversSevenPhases)
{
    auto rep = smallReport();
    std::ostringstream os;
    core::printBreakdown(os, rep);
    std::string s = os.str();
    for (const char *phase :
         {"filter_load", "input_stream", "output_xfer", "macs",
          "reduction", "quantization", "pooling", "total"})
        EXPECT_NE(s.find(phase), std::string::npos) << phase;
}

TEST(Report, EnergyComponentsPrinted)
{
    auto rep = smallReport();
    std::ostringstream os;
    core::printEnergy(os, rep);
    std::string s = os.str();
    EXPECT_NE(s.find("energy.total_J"), std::string::npos);
    EXPECT_NE(s.find("power.avg_W"), std::string::npos);
}

TEST(Report, DumpStatsIsMachineReadable)
{
    auto rep = smallReport();
    std::ostringstream os;
    core::dumpStats(os, rep);
    std::string s = os.str();

    // Every line is "key value".
    std::istringstream lines(s);
    std::string line;
    unsigned n = 0;
    while (std::getline(lines, line)) {
        ASSERT_NE(line.find(' '), std::string::npos) << line;
        ++n;
    }
    EXPECT_GT(n, 20u);

    EXPECT_NE(s.find("sim.network tiny"), std::string::npos);
    EXPECT_NE(s.find("sim.latency_ms"), std::string::npos);
    EXPECT_NE(s.find("sim.image_slots"), std::string::npos);
    EXPECT_NE(s.find("sim.batch_passes"), std::string::npos);
    EXPECT_NE(s.find("phase.mac_ms"), std::string::npos);
    EXPECT_NE(s.find("stage.conv.latency_ms"), std::string::npos);
    EXPECT_NE(s.find("stage.pool.passes"), std::string::npos);
    EXPECT_NE(s.find("energy.total_J"), std::string::npos);
}

TEST(Report, ConfigDumpCoversEveryKnob)
{
    core::NeuralCacheConfig cfg;
    std::ostringstream os;
    core::printConfig(os, cfg);
    std::string s = os.str();
    for (const char *key :
         {"config.geometry.slices 14", "config.geometry.alu_slots "
                                       "1146880",
          "config.cost.mode paper-calibrated",
          "config.cost.paper_mac_cycles 236",
          "config.dram.effective_gbps 11",
          "config.energy.compute_pj 15.4", "config.sockets 2"})
        EXPECT_NE(s.find(key), std::string::npos) << key;
}

TEST(Report, ConfigDumpReflectsOverrides)
{
    core::NeuralCacheConfig cfg;
    cfg.geometry = nc::cache::Geometry::scaled60MB();
    cfg.cost.mode = core::ArithMode::Analytic;
    cfg.sockets = 1;
    std::ostringstream os;
    core::printConfig(os, cfg);
    std::string s = os.str();
    EXPECT_NE(s.find("config.geometry.slices 24"), std::string::npos);
    EXPECT_NE(s.find("config.cost.mode analytic"), std::string::npos);
    EXPECT_NE(s.find("config.sockets 1"), std::string::npos);
}

TEST(Report, DumpStatsPhaseSumsMatchTotal)
{
    auto rep = smallReport();
    double phases = rep.phases.filterLoadPs + rep.phases.inputStreamPs +
                    rep.phases.outputXferPs + rep.phases.macPs +
                    rep.phases.reducePs + rep.phases.quantPs +
                    rep.phases.poolPs;
    EXPECT_NEAR(phases, rep.phases.totalPs(), 1e-6);
    EXPECT_NEAR(rep.latencyPs, phases, phases * 1e-9);
}

} // namespace
