// PRD-vs-CR characterization of the two node applications.
//
// Section 4.3 of the paper: "we computed an analytical estimation using two
// fifth-order polynomial functions P5_DWT(CR) and P5_CS(CR) that fit the
// experimental data provided in [13]". We mirror the methodology exactly,
// but the "experimental data" comes from running our own codecs on
// synthetic ECG: for each CR on a grid, compress and reconstruct a set of
// windows, record the mean PRD, then least-squares fit a degree-5
// polynomial. The fitted polynomial is what the analytical model evaluates
// during DSE; the raw measurements are what Fig. 4 validates against.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/cs_codec.hpp"
#include "dsp/dwt_codec.hpp"
#include "dsp/ecg.hpp"
#include "util/polynomial.hpp"

namespace wsnex::dsp {

/// One measured point of the PRD-vs-CR curve.
struct PrdMeasurement {
  double cr = 0.0;
  double prd_percent = 0.0;    ///< mean PRD over the measured windows
  double prd_stddev = 0.0;     ///< spread over the measured windows
};

struct PrdCalibrationConfig {
  /// CR grid; defaults to the paper's Fig. 3/4 range [0.17, 0.38].
  std::vector<double> cr_grid = {0.17, 0.20, 0.23, 0.26,
                                 0.29, 0.32, 0.35, 0.38};
  std::size_t windows_per_point = 12;  ///< ECG windows averaged per CR
  std::uint64_t ecg_seed = 42;
  unsigned fit_degree = 5;             ///< paper uses fifth-order fits
};

/// Result of a calibration run: measurements plus the fitted polynomial.
struct PrdCurve {
  std::vector<PrdMeasurement> measurements;
  util::Polynomial fitted;  ///< P5(CR), valid on [min(cr_grid), max(cr_grid)]
  double fit_r_squared = 0.0;
};

/// Measures the DWT codec's PRD-vs-CR curve and fits it. The grid points
/// run concurrently, one task each on a pool of min(grid points, hardware
/// threads) that lives for the call; every point writes its own slot and
/// the fit runs in grid order afterwards, so the result is bit-identical
/// for any schedule (a one-point grid runs inline). Safe to call from a
/// task running on another ThreadPool.
PrdCurve calibrate_dwt(const DwtCodecConfig& codec = {},
                       const PrdCalibrationConfig& calib = {});

/// Measures the CS codec's PRD-vs-CR curve and fits it, with the same
/// concurrent, schedule-independent grid fan-out as calibrate_dwt (the
/// codec's per-CR dictionaries are built concurrently, one per point).
PrdCurve calibrate_cs(const CsCodecConfig& codec = {},
                      const PrdCalibrationConfig& calib = {});

/// Process-wide cached calibration with default configs. The first call
/// runs both calibrations (the dominant cold-start cost of a process) or
/// loads them from the on-disk warm cache when one was configured; later
/// calls are free. All model-based evaluations share these curves, exactly
/// as the paper's model embeds one fixed pair of fitted polynomials.
struct DefaultPrdCurves {
  PrdCurve dwt;
  PrdCurve cs;
};
const DefaultPrdCurves& default_prd_curves();

/// Configures the on-disk warm cache consulted by default_prd_curves()
/// (the `wsnex --cache-dir` cold-start skip): the first calibration is
/// written to `<dir>/prd_calibration.json` and later processes load it
/// instead of re-running the codecs. Numbers round-trip through
/// util::json's shortest-exact formatting, so a warm process computes
/// bit-identical results to a cold one. An empty dir disables the cache.
/// Returns false (and changes nothing) when the default curves were
/// already computed in this process — configure the cache before first
/// use.
bool set_default_prd_cache_dir(const std::string& dir);

/// The warm-cache core, also usable with an explicit directory (the
/// campaign throughput bench times cold vs. warm through this): loads the
/// default-config calibration from `<dir>/prd_calibration.json` when the
/// file exists and its embedded key matches the current codec and
/// calibration configuration; otherwise calibrates and (re)writes the
/// file via an atomic temp-file rename. A corrupt or mismatched file is
/// recalibrated over, never trusted. Empty `dir` just calibrates.
DefaultPrdCurves load_or_calibrate_default_prd_curves(const std::string& dir);

}  // namespace wsnex::dsp
