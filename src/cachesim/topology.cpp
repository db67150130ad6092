#include "cachesim/topology.hpp"

#include "support/assert.hpp"

namespace gcr {

CacheTopology CacheTopology::symmetric(int cores, ParallelSchedule schedule) {
  GCR_CHECK(cores >= 1, "topology needs at least one core");
  CacheTopology t;
  t.cores = cores;
  t.l1 = {32 * 1024, 64, 8, "L1"};
  t.l2 = {256 * 1024, 64, 8, "L2"};
  t.llc = {8 * 1024 * 1024, 64, 16, "LLC"};
  t.schedule = schedule;
  t.name = "cmp" + std::to_string(cores) + "-" +
           parallelScheduleName(schedule);
  return t;
}

CacheTopology CacheTopology::scaledDown(int k) const {
  GCR_CHECK(k >= 1, "scale factor must be >= 1");
  CacheTopology t = *this;
  t.l1.sizeBytes /= k;
  t.l2.sizeBytes /= k;
  t.llc.sizeBytes /= k;
  t.name = name + "/" + std::to_string(k);
  return t;
}

void CacheTopology::validate() const {
  GCR_CHECK(cores >= 1 && l1.positive() && l2.positive() && llc.positive(),
            "non-positive topology geometry");
}

}  // namespace gcr
