/**
 * @file
 * Baseline device models: Xeon E5-2697 v3 (CPU) and Titan Xp (GPU).
 *
 * The paper measures TensorFlow inference on real hardware (Table II)
 * and reports per-layer latency (Figure 13), totals (Figure 15),
 * batched throughput (Figure 16), and RAPL / nvidia-smi power
 * (Table III). We cannot re-run that rig, so each device is an
 * analytic roofline: per layer,
 *
 *   t(op) = max(flops / (peak * efficiency), bytes / (bw * eff_bw))
 *           + per-op framework overhead
 *
 * and the device is then *calibrated* — a single scale factor makes
 * the Inception v3 total match the published measurement (86 ms CPU;
 * GPU derived from the published 7.7x-over-NC ratio). The per-layer
 * *shape* therefore comes from first principles (arithmetic intensity
 * dominates, mixed layers are the bulk), while absolute totals match
 * the paper (tests/baselines/test_device_model.cc pins both
 * calibrations).
 *
 * Batched throughput follows a saturating-batch model fitted to the
 * two published endpoints (batch-1 latency, peak throughput).
 */

#ifndef NC_BASELINES_DEVICE_MODEL_HH
#define NC_BASELINES_DEVICE_MODEL_HH

#include <string>
#include <vector>

#include "common/units.hh"
#include "dnn/layers.hh"

namespace nc::baselines
{

/** Analytic roofline model of one measured device. */
class DeviceModel
{
  public:
    struct Params
    {
        std::string name;
        double peakFlops = 0;      ///< FP32 peak, flops/s
        double memBwBytesPerSec = 0;
        double computeEfficiency = 1.0; ///< sustained fraction of peak
        double memEfficiency = 1.0;
        double perOpOverheadPs = 0; ///< kernel-launch/framework cost
        double measuredPowerW = 0;  ///< published average power
    };

    explicit DeviceModel(Params p) : prm(std::move(p)) {}

    const Params &params() const { return prm; }

    /** Uncalibrated roofline latency of one op / stage / network. */
    double opLatencyPs(const dnn::Op &op) const;
    double stageLatencyPs(const dnn::Stage &stage) const;
    double networkLatencyPs(const dnn::Network &net) const;

    /**
     * Pin the model so networkLatencyPs(net) * scale == target. Call
     * once with the measured workload; per-layer shape is unchanged.
     */
    void calibrate(const dnn::Network &net, double target_ms);
    double calibrationScale() const { return scale; }

    /** Calibrated per-stage latencies, ms. */
    std::vector<double> stageLatenciesMs(const dnn::Network &net) const;
    /** Calibrated total latency, ms. */
    double totalLatencyMs(const dnn::Network &net) const;

    /** Energy at the published average power, joules. */
    double energyJ(const dnn::Network &net) const;

    /** @name Published-machine presets (Table II), pre-calibrated. */
    /// @{
    static DeviceModel xeonE5_2697v3(const dnn::Network &inception);
    static DeviceModel titanXp(const dnn::Network &inception);
    /// @}

  private:
    Params prm;
    double scale = 1.0;
};

/**
 * Saturating batched-throughput curve: thr(n) = peak * n / (n + n50).
 * Fitted from the batch-1 latency and the published peak throughput.
 */
struct BatchCurve
{
    double peakInfPerSec = 0;
    double n50 = 1.0;

    double
    throughput(double n) const
    {
        return peakInfPerSec * n / (n + n50);
    }

    static BatchCurve fit(double batch1_lat_ms, double peak_inf_per_sec);
};

} // namespace nc::baselines

#endif // NC_BASELINES_DEVICE_MODEL_HH
