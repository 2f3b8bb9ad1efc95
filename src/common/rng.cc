#include "common/rng.h"

namespace simpush {

Rng Rng::Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

}  // namespace simpush
