#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs the arithmetic self-tests; returns the number of failed checks
/// (each is reported on stderr).
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
