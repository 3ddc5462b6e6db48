#pragma once
// Fixture: Status/Result-returning declarations without [[nodiscard]].
#include "common/result.h"
namespace skyrise {
class Store {
 public:
  Status Flush();          // unannotated: class-level [[nodiscard]] on
  Result<int> Count();     // Status/Result still rejects a dropped result
  [[nodiscard]] Status Sync();  // annotated
  void Reset();            // not fallible
  Status* last_status();   // pointer return, not a fresh result
};
}  // namespace skyrise
