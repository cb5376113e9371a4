#include "distance/linear.h"

namespace pis {

LinearCostModel EdgeLinearModel() { return LinearCostModel(false, true); }

}  // namespace pis
