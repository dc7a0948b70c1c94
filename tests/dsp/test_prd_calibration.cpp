#include "dsp/prd_calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/polynomial.hpp"
#include "util/thread_pool.hpp"

namespace wsnex::dsp {
namespace {

namespace fs = std::filesystem;

PrdCalibrationConfig fast_calibration() {
  PrdCalibrationConfig calib;
  calib.cr_grid = {0.17, 0.24, 0.31, 0.38};
  calib.windows_per_point = 4;
  return calib;
}

TEST(PrdCalibration, DwtCurveShape) {
  const PrdCurve curve = calibrate_dwt({}, fast_calibration());
  ASSERT_EQ(curve.measurements.size(), 4u);
  // PRD decreases monotonically with CR over the case-study range.
  for (std::size_t i = 1; i < curve.measurements.size(); ++i) {
    EXPECT_LT(curve.measurements[i].prd_percent,
              curve.measurements[i - 1].prd_percent);
  }
  EXPECT_GT(curve.fit_r_squared, 0.98);
}

TEST(PrdCalibration, CsCurveShapeAndDominatedByDwt) {
  const PrdCalibrationConfig calib = fast_calibration();
  const PrdCurve cs = calibrate_cs({}, calib);
  const PrdCurve dwt = calibrate_dwt({}, calib);
  for (std::size_t i = 0; i < calib.cr_grid.size(); ++i) {
    // CS pays for its trivial encoder with far worse reconstruction.
    EXPECT_GT(cs.measurements[i].prd_percent,
              dwt.measurements[i].prd_percent);
  }
  EXPECT_LT(cs.measurements.back().prd_percent,
            cs.measurements.front().prd_percent);
}

TEST(PrdCalibration, FittedPolynomialTracksMeasurements) {
  const PrdCurve curve = calibrate_dwt({}, fast_calibration());
  for (const PrdMeasurement& m : curve.measurements) {
    const double rel_err =
        std::abs(curve.fitted(m.cr) - m.prd_percent) / m.prd_percent;
    EXPECT_LT(rel_err, 0.05) << "cr=" << m.cr;
  }
}

TEST(PrdCalibration, FitDegreeClampedToPointCount) {
  PrdCalibrationConfig calib = fast_calibration();
  calib.cr_grid = {0.2, 0.3};  // 2 points cannot support degree 5
  calib.fit_degree = 5;
  const PrdCurve curve = calibrate_dwt({}, calib);
  EXPECT_LE(curve.fitted.degree(), 1u);
}

TEST(PrdCalibration, DefaultCurvesCachedAndConsistent) {
  const DefaultPrdCurves& a = default_prd_curves();
  const DefaultPrdCurves& b = default_prd_curves();
  EXPECT_EQ(&a, &b);  // one calibration per process
  ASSERT_EQ(a.dwt.measurements.size(), 8u);
  EXPECT_GT(a.dwt.fit_r_squared, 0.99);
  EXPECT_GT(a.cs.fit_r_squared, 0.97);
  // Fitted polynomials evaluable over the whole case-study range.
  for (double cr = 0.17; cr <= 0.38; cr += 0.01) {
    EXPECT_GT(a.dwt.fitted(cr), 0.0);
    EXPECT_GT(a.cs.fitted(cr), a.dwt.fitted(cr));
  }
}

void expect_same_curve(const PrdCurve& a, const PrdCurve& b) {
  ASSERT_EQ(a.measurements.size(), b.measurements.size());
  for (std::size_t i = 0; i < a.measurements.size(); ++i) {
    EXPECT_EQ(a.measurements[i].cr, b.measurements[i].cr);
    EXPECT_EQ(a.measurements[i].prd_percent, b.measurements[i].prd_percent);
    EXPECT_EQ(a.measurements[i].prd_stddev, b.measurements[i].prd_stddev);
  }
  const std::span<const double> ca = a.fitted.coefficients();
  const std::span<const double> cb = b.fitted.coefficients();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i], cb[i]) << "coefficient " << i;
  }
  EXPECT_EQ(a.fit_r_squared, b.fit_r_squared);
}

/// The serial reference for a grid: one single-point calibration per CR.
/// A one-point grid runs on a width-1 pool, i.e. inline on this thread.
/// The fit is redone over those points in grid order.
template <typename Calibrate>
PrdCurve pointwise_reference(const PrdCalibrationConfig& calib,
                             Calibrate&& calibrate) {
  PrdCurve curve;
  std::vector<double> ys;
  for (const double cr : calib.cr_grid) {
    PrdCalibrationConfig one = calib;
    one.cr_grid = {cr};
    const PrdCurve point = calibrate(one);
    EXPECT_EQ(point.measurements.size(), 1u);
    curve.measurements.push_back(point.measurements.front());
    ys.push_back(point.measurements.front().prd_percent);
  }
  const unsigned degree = static_cast<unsigned>(
      std::min<std::size_t>(calib.fit_degree, calib.cr_grid.size() - 1));
  curve.fitted = util::fit_polynomial(calib.cr_grid, ys, degree);
  curve.fit_r_squared = util::r_squared(curve.fitted, calib.cr_grid, ys);
  return curve;
}

TEST(PrdCalibration, GridFanOutMatchesPointwiseSerialCalibration) {
  const PrdCalibrationConfig calib;  // the default grid the model uses
  expect_same_curve(calibrate_cs(), pointwise_reference(calib, [](auto& c) {
                      return calibrate_cs({}, c);
                    }));
  expect_same_curve(calibrate_dwt(), pointwise_reference(calib, [](auto& c) {
                      return calibrate_dwt({}, c);
                    }));
}

TEST(PrdCalibration, CalibrationInsidePoolTaskMatchesTopLevel) {
  // The lazy path of a `--jobs 4` campaign: the first scenario task to
  // need the curves calibrates from inside a run_tasks task, on a pool of
  // its own nested in the campaign's.
  const PrdCurve cs = calibrate_cs();
  const PrdCurve dwt = calibrate_dwt();
  util::ThreadPool campaign_pool(4);
  std::vector<PrdCurve> nested_cs(4);
  std::vector<PrdCurve> nested_dwt(4);
  campaign_pool.run_tasks(4, [&](std::size_t task) {
    nested_cs[task] = calibrate_cs();
    nested_dwt[task] = calibrate_dwt();
  });
  for (std::size_t task = 0; task < 4; ++task) {
    SCOPED_TRACE(task);
    expect_same_curve(cs, nested_cs[task]);
    expect_same_curve(dwt, nested_dwt[task]);
  }
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class WarmCacheTest : public ::testing::Test {
 protected:
  fs::path dir_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_prd_cache_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  void TearDown() override { fs::remove_all(dir_); }
};

TEST_F(WarmCacheTest, WarmLoadIsBitIdenticalToColdCalibration) {
  // First call calibrates and writes the cache file; the second must load
  // it and reproduce every number exactly (the shortest-round-trip JSON
  // formatting is lossless), so warm processes evaluate identically.
  const DefaultPrdCurves cold =
      load_or_calibrate_default_prd_curves(dir_.string());
  ASSERT_TRUE(fs::exists(dir_ / "prd_calibration.json"));
  const fs::file_time_type written =
      fs::last_write_time(dir_ / "prd_calibration.json");

  const DefaultPrdCurves warm =
      load_or_calibrate_default_prd_curves(dir_.string());
  EXPECT_EQ(fs::last_write_time(dir_ / "prd_calibration.json"), written)
      << "second call must not rewrite the cache";
  expect_same_curve(cold.dwt, warm.dwt);
  expect_same_curve(cold.cs, warm.cs);

  // And both match a cache-less calibration.
  const DefaultPrdCurves plain = load_or_calibrate_default_prd_curves("");
  expect_same_curve(plain.dwt, warm.dwt);
  expect_same_curve(plain.cs, warm.cs);
}

TEST_F(WarmCacheTest, CorruptCacheIsRecalibratedOver) {
  const DefaultPrdCurves cold =
      load_or_calibrate_default_prd_curves(dir_.string());
  {
    std::ofstream out(dir_ / "prd_calibration.json",
                      std::ios::binary | std::ios::trunc);
    out << "{ not json";
  }
  const DefaultPrdCurves recovered =
      load_or_calibrate_default_prd_curves(dir_.string());
  expect_same_curve(cold.dwt, recovered.dwt);
  expect_same_curve(cold.cs, recovered.cs);
  // The rewritten file is valid again: a third call loads it unchanged.
  const fs::file_time_type rewritten =
      fs::last_write_time(dir_ / "prd_calibration.json");
  (void)load_or_calibrate_default_prd_curves(dir_.string());
  EXPECT_EQ(fs::last_write_time(dir_ / "prd_calibration.json"), rewritten);
}

TEST_F(WarmCacheTest, KeyMismatchIsRecalibrated) {
  const DefaultPrdCurves cold =
      load_or_calibrate_default_prd_curves(dir_.string());
  const fs::path file = dir_ / "prd_calibration.json";
  const std::string fresh = read_text(file);

  // A cache written by a different configuration (perturbed key)...
  std::string other_seed = fresh;
  const std::string needle = "\"ecg_seed\": 42";
  const auto pos = other_seed.find(needle);
  ASSERT_NE(pos, std::string::npos);
  other_seed.replace(pos, needle.size(), "\"ecg_seed\": 43");
  // ...and one from an older build, whose key also carried
  // "simd_reassociation": false.
  util::Json legacy = util::Json::parse(fresh);
  util::Json legacy_key = legacy.at("key");
  legacy_key.set("simd_reassociation", false);
  legacy.set("key", std::move(legacy_key));

  for (const std::string& stale : {other_seed, legacy.dump(2)}) {
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      out << stale;
    }
    const DefaultPrdCurves recalibrated =
        load_or_calibrate_default_prd_curves(dir_.string());
    expect_same_curve(cold.dwt, recalibrated.dwt);
    expect_same_curve(cold.cs, recalibrated.cs);
    // The mismatched file must have been recalibrated over: the rewritten
    // cache is the fresh one again (mtime comparisons would be flaky on
    // coarse-granularity filesystems, so check the contents).
    EXPECT_EQ(read_text(file), fresh)
        << "mismatched key must be recalibrated and rewritten";
  }
}

TEST(PrdCalibration, MeasurementSpreadReported) {
  const PrdCurve curve = calibrate_dwt({}, fast_calibration());
  for (const PrdMeasurement& m : curve.measurements) {
    EXPECT_GE(m.prd_stddev, 0.0);
    EXPECT_LT(m.prd_stddev, m.prd_percent);  // windows are similar
  }
}

}  // namespace
}  // namespace wsnex::dsp
