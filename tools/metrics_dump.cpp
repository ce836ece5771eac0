// Scrape-friendly metrics dump.
//
//   build/tools/metrics_dump [--prometheus | --json | --text] [script.hql ...]
//
// Executes the given HQL scripts against a fresh database (script output is
// discarded), then writes the engine's metrics to stdout: the output of
// SHOW METRICS PROMETHEUS (the default, so the binary can sit behind a
// textfile collector or a cron job without an HTTP endpoint), SHOW METRICS
// JSON (--json) or SHOW METRICS (--text).

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "hql/executor.h"

using namespace hirel;

namespace {

enum class Format { kPrometheus, kJson, kText };

int Usage() {
  std::cerr << "usage: metrics_dump [--prometheus | --json | --text] "
               "[script.hql ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Format format = Format::kPrometheus;
  hql::Executor exec;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) {
      format = Format::kPrometheus;
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      format = Format::kJson;
      continue;
    }
    if (std::strcmp(argv[i], "--text") == 0) {
      format = Format::kText;
      continue;
    }
    if (argv[i][0] == '-') return Usage();
    std::ifstream in(argv[i]);
    if (!in) {
      std::cerr << "cannot open " << argv[i] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<std::string> out = exec.Execute(buffer.str());
    if (!out.ok()) {
      std::cerr << argv[i] << ": " << out.status() << "\n";
      return 1;
    }
  }

  // Every format is the matching SHOW METRICS statement's output, so the
  // dump and the REPL always agree.
  const char* statement = "SHOW METRICS PROMETHEUS;";
  if (format == Format::kJson) statement = "SHOW METRICS JSON;";
  if (format == Format::kText) statement = "SHOW METRICS;";
  Result<std::string> out = exec.Execute(statement);
  if (!out.ok()) {
    std::cerr << "metrics dump failed: " << out.status() << "\n";
    return 1;
  }
  std::cout << *out;
  return 0;
}
