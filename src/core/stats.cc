#include "core/stats.h"

#include "util/string_util.h"

namespace pis {

void QueryStats::Accumulate(const QueryStats& other) {
  fragments_enumerated += other.fragments_enumerated;
  fragments_kept += other.fragments_kept;
  range_queries += other.range_queries;
  partition_size += other.partition_size;
  partition_weight += other.partition_weight;
  candidates_after_intersection += other.candidates_after_intersection;
  candidates_after_partition += other.candidates_after_partition;
  candidates_final += other.candidates_final;
  answers += other.answers;
  filter_seconds += other.filter_seconds;
  verify_seconds += other.verify_seconds;
  pass1_seconds += other.pass1_seconds;
  selectivity_seconds += other.selectivity_seconds;
  partition_seconds += other.partition_seconds;
  pass2_seconds += other.pass2_seconds;
}

std::string QueryStats::ToString() const {
  return StrFormat(
      "fragments=%zu kept=%zu range_queries=%zu partition=%zu (w=%.3f) "
      "cand_intersect=%zu cand_partition=%zu cand_final=%zu answers=%zu "
      "filter=%.3fms verify=%.3fms",
      fragments_enumerated, fragments_kept, range_queries, partition_size,
      partition_weight, candidates_after_intersection,
      candidates_after_partition, candidates_final, answers,
      filter_seconds * 1e3, verify_seconds * 1e3);
}

}  // namespace pis
