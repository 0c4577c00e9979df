// fablint fixture: good twin of load_numeric_bad.cpp.  Shapes are
// piecewise arithmetic; a member or project function that happens to
// share a libm name is not a libm call, and neither is prose such as
// "std::sin(x)" or <random> in a comment.  Zero findings expected.
#include <cmath>

namespace fixture {

struct Recorder {
  const char* last = nullptr;
  void log(const char* what) { last = what; }
};

namespace shape {
double exp(double x) { return 1.0 + x + 0.5 * x * x; }
}  // namespace shape

/// Triangle wave over [0, 1): the sinusoid's deterministic stand-in.
double diurnal(double phase) {
  const double frac = phase - static_cast<double>(static_cast<long>(phase));
  return frac < 0.5 ? 4.0 * frac - 1.0 : 3.0 - 4.0 * frac;
}

double zipf_weight(double rank, double s, Recorder& rec) {
  rec.log("weight");
  return shape::exp(-s) / std::pow(rank, s);
}

}  // namespace fixture
