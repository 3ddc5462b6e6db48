// Fixture: discards the results of missing_nodiscard_violation.h's
// unannotated declarations. Must fail to compile; see
// CompilerGate.MissingNodiscard in tests/CMakeLists.txt.
#include "missing_nodiscard_violation.h"

namespace skyrise {

void Caller(Store& store) {
  store.Flush();
  store.Count();
  Status st = store.Sync();  // OK: result bound.
  (void)st;
  store.Reset();
  store.last_status();
}

}  // namespace skyrise
