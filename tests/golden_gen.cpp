// Golden-corpus generator: runs every corpus case and (re)writes its
// digest JSON. Driven by scripts/update_goldens.sh after an intentional
// behavior change; the diff of tests/golden/*.json then documents exactly
// which statistics moved.
//
// Usage: golden_gen [output_dir]   (default: the committed tests/golden)
#include "golden_runner.hpp"

#include "common/parallel.hpp"

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : REM_GOLDEN_DIR;
  const auto jobs = rem::testkit::golden_jobs();
  std::vector<rem::testkit::TraceDigest> digests(jobs.size());
  std::vector<std::string> errors(jobs.size());
  rem::common::parallel_for(
      jobs.size(), rem::testkit::bench_threads(), [&](std::size_t i) {
        try {
          digests[i] = jobs[i].run();
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
  int failures = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "FAIL %s: %s\n", jobs[i].name.c_str(),
                   errors[i].c_str());
      ++failures;
      continue;
    }
    const std::string path = out_dir + "/" + jobs[i].name + ".json";
    try {
      rem::testkit::write_digest_json_file(digests[i], path);
      std::printf("wrote %s\n", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
