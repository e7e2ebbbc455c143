#include "src/core/policy.h"

#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

void BlendShares(const std::vector<double>& a, const std::vector<double>& b, double weight,
                 std::vector<double>* out) {
  SDB_CHECK(a.size() == b.size());
  SDB_CHECK(out != &a && out != &b);
  weight = Clamp(weight, 0.0, 1.0);
  out->resize(a.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    (*out)[i] = weight * a[i] + (1.0 - weight) * b[i];
    sum += (*out)[i];
  }
  if (sum > 0.0) {
    for (auto& s : *out) {
      s /= sum;
    }
  }
}

}  // namespace sdb
