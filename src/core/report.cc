#include "core/report.hh"

#include <iomanip>

namespace nc::core
{

double
InferenceReport::avgPowerW() const
{
    double span = batchPs > 0 ? batchPs : latencyPs;
    return energy.avgPowerW(span * picoToSec);
}

void
printStageTable(std::ostream &os, const InferenceReport &rep)
{
    os << std::left << std::setw(18) << "stage" << std::right
       << std::setw(12) << "latency_ms" << std::setw(9) << "passes"
       << std::setw(8) << "util%" << "\n";
    for (const auto &st : rep.stages) {
        os << std::left << std::setw(18) << st.name << std::right
           << std::setw(12) << std::fixed << std::setprecision(4)
           << st.totalPs() * picoToMs << std::setw(9)
           << st.serialPasses << std::setw(8) << std::setprecision(1)
           << st.utilization * 100.0 << "\n";
    }
    os << std::left << std::setw(18) << "total" << std::right
       << std::setw(12) << std::setprecision(4) << rep.latencyMs()
       << "\n";
}

void
printBreakdown(std::ostream &os, const InferenceReport &rep)
{
    const auto &p = rep.phases;
    double total = p.totalPs();
    auto row = [&](const char *name, double ps) {
        os << std::left << std::setw(16) << name << std::right
           << std::setw(10) << std::fixed << std::setprecision(4)
           << ps * picoToMs << " ms" << std::setw(8)
           << std::setprecision(2) << (total > 0 ? 100.0 * ps / total : 0)
           << " %\n";
    };
    row("filter_load", p.filterLoadPs);
    row("input_stream", p.inputStreamPs);
    row("output_xfer", p.outputXferPs);
    row("macs", p.macPs);
    row("reduction", p.reducePs);
    row("quantization", p.quantPs);
    row("pooling", p.poolPs);
    os << std::left << std::setw(16) << "total" << std::right
       << std::setw(10) << std::setprecision(4) << total * picoToMs
       << " ms\n";
}

void
dumpStats(std::ostream &os, const InferenceReport &rep)
{
    os << std::setprecision(9);
    os << "sim.network " << rep.networkName << "\n";
    os << "sim.batch " << rep.batch << "\n";
    os << "sim.sockets " << rep.sockets << "\n";
    os << "sim.latency_ms " << rep.latencyMs() << "\n";
    os << "sim.batch_ms " << rep.batchMs() << "\n";
    os << "sim.throughput_inf_per_s " << rep.throughput() << "\n";
    os << "sim.spill_ms " << rep.spillPs * picoToMs << "\n";
    os << "sim.image_slots " << rep.imageSlots << "\n";
    os << "sim.batch_passes " << rep.batchPasses << "\n";
    os << "sim.faults_detected " << rep.faultsDetected << "\n";
    os << "sim.arrays_retired " << rep.arraysRetired << "\n";
    os << "sim.pass_retries " << rep.passRetries << "\n";
    os << "sim.programs_verified " << rep.programsVerified << "\n";
    os << "sim.verify_ms " << rep.verifyMs << "\n";

    const auto &p = rep.phases;
    os << "phase.filter_load_ms " << p.filterLoadPs * picoToMs << "\n";
    os << "phase.input_stream_ms " << p.inputStreamPs * picoToMs
       << "\n";
    os << "phase.output_xfer_ms " << p.outputXferPs * picoToMs << "\n";
    os << "phase.mac_ms " << p.macPs * picoToMs << "\n";
    os << "phase.reduce_ms " << p.reducePs * picoToMs << "\n";
    os << "phase.quant_ms " << p.quantPs * picoToMs << "\n";
    os << "phase.pool_ms " << p.poolPs * picoToMs << "\n";

    for (const auto &st : rep.stages) {
        os << "stage." << st.name << ".latency_ms "
           << st.totalPs() * picoToMs << "\n";
        os << "stage." << st.name << ".passes " << st.serialPasses
           << "\n";
        os << "stage." << st.name << ".utilization "
           << st.utilization << "\n";
    }

    const auto &e = rep.energy;
    os << "energy.compute_J " << e.computeJ << "\n";
    os << "energy.access_J " << e.accessJ << "\n";
    os << "energy.dram_J " << e.dramJ << "\n";
    os << "energy.wire_J " << e.wireJ << "\n";
    os << "energy.background_J " << e.backgroundJ << "\n";
    os << "energy.total_J " << e.totalJ() << "\n";
    os << "power.avg_W " << rep.avgPowerW() << "\n";
}

void
printConfig(std::ostream &os, const NeuralCacheConfig &cfg)
{
    const auto &g = cfg.geometry;
    os << "config.geometry.name " << g.name << "\n";
    os << "config.geometry.slices " << g.slices << "\n";
    os << "config.geometry.ways " << g.waysPerSlice << "\n";
    os << "config.geometry.reserved_ways " << g.reservedWays << "\n";
    os << "config.geometry.total_arrays " << g.totalArrays() << "\n";
    os << "config.geometry.alu_slots " << g.aluSlots() << "\n";
    os << "config.geometry.capacity_mib "
       << bytesToMiB(g.capacityBytes()) << "\n";

    const auto &c = cfg.cost;
    os << "config.cost.mode " << arithModeName(c.mode) << "\n";
    os << "config.cost.bits " << c.bits << "\n";
    os << "config.cost.accumulator_bits " << c.accumulatorBits << "\n";
    os << "config.cost.paper_mac_cycles " << c.paperMacCycles << "\n";
    os << "config.cost.paper_reduce_cycles " << c.paperReduceCycles
       << "\n";
    os << "config.cost.input_stream_factor " << c.inputStreamFactor
       << "\n";
    os << "config.cost.output_drain_factor " << c.outputDrainFactor
       << "\n";
    os << "config.cost.overlap_input_stream "
       << (c.overlapInputStream ? 1 : 0) << "\n";
    os << "config.cost.compute_ghz "
       << c.timing.computeClock.freqHz * 1e-9 << "\n";
    os << "config.cost.access_ghz "
       << c.timing.accessClock.freqHz * 1e-9 << "\n";

    os << "config.dram.effective_gbps "
       << cfg.dram.effectiveBw.bytesPerSec * 1e-9 << "\n";
    os << "config.dram.latency_ns "
       << cfg.dram.streamLatencyPs * 1e-3 << "\n";

    const auto &e = cfg.energy;
    os << "config.energy.compute_pj " << e.array.computePj << "\n";
    os << "config.energy.access_pj " << e.array.accessPj << "\n";
    os << "config.energy.dram_pj_per_byte " << e.dramPjPerByte << "\n";
    os << "config.energy.wire_pj_per_byte " << e.wirePjPerByte << "\n";
    os << "config.energy.background_w " << e.backgroundPowerW << "\n";
    os << "config.sockets " << cfg.sockets << "\n";
}

void
printEnergy(std::ostream &os, const InferenceReport &rep)
{
    const auto &e = rep.energy;
    os << std::fixed << std::setprecision(4);
    os << "energy.compute_J    " << e.computeJ << "\n";
    os << "energy.access_J     " << e.accessJ << "\n";
    os << "energy.dram_J       " << e.dramJ << "\n";
    os << "energy.wire_J       " << e.wireJ << "\n";
    os << "energy.background_J " << e.backgroundJ << "\n";
    os << "energy.total_J      " << e.totalJ() << "\n";
    os << "power.avg_W         " << std::setprecision(2)
       << rep.avgPowerW() << "\n";
}

} // namespace nc::core
