// fablint fixture: numeric nondeterminism in the load generator (this
// file lives under a load/ directory, which scopes the `load-numeric`
// rule).  <random> distributions differ between standard libraries for
// the same seed, and libm transcendentals may differ at the last ulp
// between platforms; both would move the determinism digest.
#include <cmath>
#include <random>  // EXPECT: load-numeric

namespace fixture {

template <typename Gen>
double next_gap(Gen& gen, double rate) {
  std::exponential_distribution<double> gap(rate);  // EXPECT: load-numeric
  return gap(gen);
}

double diurnal(double phase) {
  return 1.0 + 0.5 * std::sin(phase);  // EXPECT: load-numeric
}

double zipf_weight(double rank, double s) {
  return exp(-s * log(rank));  // EXPECT: load-numeric
}

}  // namespace fixture
