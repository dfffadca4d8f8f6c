// Tests of the checker: each hand-built bad case must be rejected and
// each good one accepted. Run with `perfbench_harness --self-test`; the
// benchmark runs it before every workload.
#include <cstdio>
#include <string>

#include "checker.hpp"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

Geometry TwoLinks(double sender1_x, double receiver1_x) {
  Geometry g;
  g.sx = {0.0, sender1_x};
  g.sy = {0.0, 0.0};
  g.rx = {10.0, receiver1_x};
  g.ry = {0.0, 0.0};
  g.rate = {1.0, 1.0};
  return g;
}

std::string Signed(const std::string& body) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(Fnv1a(body)));
  return body.substr(0, 2) + " sum=" + hex + body.substr(2);
}

}  // namespace

int RunSelfTest() {
  // Corollary 3.1: co-located receivers are infeasible together, fine alone;
  // far-apart links are feasible together.
  const Geometry colocated = TwoLinks(20.0, 10.0);
  Expect(!CheckCorollary31(colocated, {0, 1}).empty(), "co-located receivers rejected");
  Expect(CheckCorollary31(colocated, {1}).empty(), "singleton accepted");
  const Geometry far = TwoLinks(5000.0, 5010.0);
  Expect(CheckCorollary31(far, {0, 1}).empty(), "far-apart pair accepted");
  Geometry noisy = far;
  noisy.noise_power = 1e-9;
  Expect(!CheckCorollary31(noisy, {0}).empty(), "noisy scenario refused");

  // Replies: sum, id, order, range, rate.
  Expect(CheckReply(Signed("OK id=a rate=2 schedule=0,1"), "a", far, true).empty(),
         "good reply accepted");
  Expect(!CheckReply(Signed("OK id=a rate=2 schedule=0,1"), "a", colocated, true).empty(),
         "infeasible served schedule rejected");
  Expect(!CheckReply(Signed("OK id=a rate=2 schedule=0,1"), "b", far, true).empty(),
         "wrong echoed id rejected");
  Expect(!CheckReply(Signed("OK id=a rate=2 schedule=1,0"), "a", far, true).empty(),
         "descending ids rejected");
  Expect(!CheckReply(Signed("OK id=a rate=2 schedule=1,1"), "a", far, true).empty(),
         "duplicate ids rejected");
  Expect(!CheckReply(Signed("OK id=a rate=3 schedule=0,2"), "a", far, true).empty(),
         "out-of-range id rejected");
  Expect(!CheckReply(Signed("OK id=a rate=3 schedule=0,1"), "a", far, true).empty(),
         "wrong rate rejected");
  std::string tampered = Signed("OK id=a rate=2 schedule=0,1");
  tampered.back() = '0';
  Expect(!CheckReply(tampered, "a", far, true).empty(), "bad sum rejected");

  // Ledger.
  const std::vector<SlotTally> slots = {{5, 3, 2, 1, 3}, {1, 2, 2, 0, 2}};
  Expect(CheckLedger(slots, {6, 4, 0, 2, 5, 1}).empty(), "balanced ledger accepted");
  Expect(!CheckLedger({{5, 3, 2, 1, 4}}, {5, 2, 0, 4, 3, 1}).empty(),
         "unbalanced slot rejected");
  Expect(!CheckLedger(slots, {7, 4, 0, 2, 5, 1}).empty(), "unbalanced totals rejected");
  Expect(!CheckLedger(slots, {6, 4, 0, 2, 5, 2}).empty(), "misreported failures rejected");

  // Fading failure bound at eps = 0.01 over 1000 transmissions.
  Expect(CheckFailureBound(10, 1000, 0.01).empty(), "failures at eps accepted");
  Expect(!CheckFailureBound(50, 1000, 0.01).empty(), "inflated failure count rejected");

  if (failures == 0) std::fprintf(stderr, "checker self-test: all cases behave\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
