// Fixture for lint_tests: svc-raw-fork violations. This file is test data
// — it is never compiled or linted as part of the repo walk.
#include <sys/wait.h>
#include <unistd.h>

int fixture_forks() {
  const int pid = fork();
  ::execv("/bin/true", nullptr);
  execvp("true", nullptr);
  int status = 0;
  ::waitpid(pid, &status, 0);
  // nomc-lint: allow(svc-raw-fork)
  const int allowed = fork();
  return pid + status + allowed;
}

struct FakeSupervisor {
  // A *declaration* named after a syscall trips the token heuristic too;
  // it wants an explicit suppression.
  bool fork(int) { return true; }  // nomc-lint: allow(svc-raw-fork)
};

int fixture_member_calls(FakeSupervisor& pool, FakeSupervisor* pointer) {
  // Method calls do not trip the rule; only the bare syscall shape does.
  const bool a = pool.fork(1);
  const bool b = pointer->fork(2);
  return a && b ? 1 : 0;
}
