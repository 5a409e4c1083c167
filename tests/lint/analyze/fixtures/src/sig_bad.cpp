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

}  // namespace fixture
