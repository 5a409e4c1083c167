// Fixture: a registered fatal-signal handler that allocates, prints,
// and locks. Every vice on the handler path must fire.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

namespace fixture {

std::mutex g_mu;

void crash_handler(int sig) {
  std::string msg = "fatal";
  std::fprintf(stderr, "%s %d\n", msg.c_str(), sig);
  std::lock_guard<std::mutex> hold(g_mu);
  std::free(nullptr);
  g_mu.lock();
  g_mu.unlock();
}

void install() { std::signal(SIGSEGV, crash_handler); }

// A second handler whose helpers are safe but defined in sig_helper.cpp,
// outside the walked file: each call must be on the allowlist.
int helper_depth(int sig);
struct Tally {
  int hits = 0;
  void bump();
};
Tally g_tally;

void term_handler(int sig) {
  g_tally.bump();
  helper_depth(sig);
}

void install_term() { std::signal(SIGTERM, term_handler); }

}  // namespace fixture
