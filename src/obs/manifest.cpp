#include "obs/manifest.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/json.hpp"

// Stamped by src/obs/CMakeLists.txt at configure time; the fallbacks keep
// out-of-CMake builds (and IDE syntax passes) compiling.
#ifndef BVC_GIT_SHA
#define BVC_GIT_SHA "unknown"
#endif
#ifndef BVC_BUILD_TYPE
#define BVC_BUILD_TYPE "unknown"
#endif

namespace bvc::obs {

RunManifest make_run_manifest(int argc, const char* const* argv) {
  RunManifest manifest;
  if (argc > 0) {
    manifest.binary = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    manifest.args.emplace_back(argv[i]);
  }
  manifest.git_sha = BVC_GIT_SHA;
  manifest.build_type = BVC_BUILD_TYPE;
#ifdef __VERSION__
  manifest.compiler = __VERSION__;
#else
  manifest.compiler = "unknown";
#endif
  manifest.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  manifest.started_at_utc = stamp;
  return manifest;
}

void write_manifest_json(std::ostream& out, const RunManifest& manifest,
                         const MetricsSnapshot& metrics) {
  using util::append_json_escaped;
  std::string text = "{\n  \"binary\": ";
  append_json_escaped(text, manifest.binary);
  text += ",\n  \"args\": [";
  for (std::size_t i = 0; i < manifest.args.size(); ++i) {
    text += i == 0 ? "" : ", ";
    append_json_escaped(text, manifest.args[i]);
  }
  text += "],\n  \"git_sha\": ";
  append_json_escaped(text, manifest.git_sha);
  text += ",\n  \"build_type\": ";
  append_json_escaped(text, manifest.build_type);
  text += ",\n  \"compiler\": ";
  append_json_escaped(text, manifest.compiler);
  text += ",\n  \"hardware_threads\": " +
          std::to_string(manifest.hardware_threads);
  text += ",\n  \"started_at_utc\": ";
  append_json_escaped(text, manifest.started_at_utc);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", manifest.elapsed_seconds);
  text += ",\n  \"elapsed_seconds\": ";
  text += buffer;
  const auto append_pairs =
      [&](const std::vector<std::pair<std::string, std::string>>& pairs) {
        text += '{';
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          text += i == 0 ? "" : ", ";
          append_json_escaped(text, pairs[i].first);
          text += ": ";
          append_json_escaped(text, pairs[i].second);
        }
        text += '}';
      };
  text += ",\n  \"outputs\": ";
  append_pairs(manifest.outputs);
  text += ",\n  \"annotations\": ";
  append_pairs(manifest.annotations);
  text += ",\n  \"metrics\": ";
  // Indentation mismatch with the nested writer is cosmetic; the payload
  // is for machines first.
  std::ostringstream nested;
  write_metrics_json(nested, metrics);
  std::string body = nested.str();
  while (!body.empty() && (body.back() == '\n')) {
    body.pop_back();
  }
  out << text << body << "\n}\n";
}

}  // namespace bvc::obs
