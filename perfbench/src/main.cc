// perfbench — one end-to-end benchmark of the learned-index stack.
//
//   perfbench --workload <static_read|mixed_durable|point_existence>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a table of metrics and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 on
// any wrong answer, 2 on bad arguments. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  perfbench::Report report;
  perfbench::Ledger ledger;
  if (args.workload == "static_read") {
    perfbench::RunStaticRead(args, &report, &ledger);
  } else if (args.workload == "mixed_durable") {
    perfbench::RunMixedDurable(args, &report, &ledger);
  } else if (args.workload == "point_existence") {
    perfbench::RunPointExistence(args, &report, &ledger);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  report.Print(args, &ledger);
  return ledger.failed() == 0 ? 0 : 1;
}
