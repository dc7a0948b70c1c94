// Golden archives: every shipped preset, at its full budget, must write
// pareto.csv and feasible.csv byte-identical to the committed digests in
// golden_archives.txt — whether the campaign runs serially or as four
// concurrent jobs. This pins the engine's output across refactors and
// across SIMD dispatch (CI also runs it under WSNEX_FORCE_SCALAR=1).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/fsio.hpp"

namespace wsnex::scenario {
namespace {

namespace fs = std::filesystem;

/// FNV-1a, 64-bit, as lowercase hex (the digest file's format).
std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

/// "<preset>/<file>" -> digest, from golden_archives.txt.
std::map<std::string, std::string> load_digests() {
  std::ifstream in(WSNEX_GOLDEN_DIGESTS);
  EXPECT_TRUE(in) << WSNEX_GOLDEN_DIGESTS;
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string preset, file, digest;
    fields >> preset >> file >> digest;
    digests[preset + "/" + file] = digest;
  }
  return digests;
}

void expect_golden_archives(std::size_t jobs) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("wsnex_golden_jobs" + std::to_string(jobs));
  fs::remove_all(dir);
  CampaignOptions options;
  options.out_dir = dir.string();
  options.jobs = jobs;
  options.progress = false;
  const std::vector<ScenarioSpec> specs = all_presets();
  ASSERT_TRUE(run_campaign(specs, options).complete);

  const std::map<std::string, std::string> golden = load_digests();
  ASSERT_EQ(golden.size(), 2 * specs.size())
      << "golden_archives.txt must cover every preset";
  const ResultStore store(dir.string());
  for (const ScenarioSpec& spec : specs) {
    for (const auto& [file, path] :
         {std::pair{"pareto.csv", store.pareto_csv_path(spec.name)},
          std::pair{"feasible.csv", store.feasible_csv_path(spec.name)}}) {
      const std::string key = spec.name + "/" + file;
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key << " has no golden digest";
      EXPECT_EQ(fnv1a64_hex(util::read_file(path)), it->second) << key;
    }
  }
  fs::remove_all(dir);
}

TEST(GoldenArchives, SerialCampaignMatchesDigests) {
  expect_golden_archives(1);
}

TEST(GoldenArchives, FourJobCampaignMatchesDigests) {
  expect_golden_archives(4);
}

}  // namespace
}  // namespace wsnex::scenario
