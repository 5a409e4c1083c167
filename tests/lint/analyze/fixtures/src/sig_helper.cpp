// Fixture: the helpers sig_bad.cpp's second handler calls. They are
// async-signal-safe and this file is clean; the calls are findings only
// because they leave the handler's file.
namespace fixture {

int helper_depth(int sig) { return sig + 1; }

struct Tally {
  int hits = 0;
  void bump();
};

void Tally::bump() { ++hits; }

}  // namespace fixture
