// Fixture: statement-level calls that drop a Status/Result return value.
// Must fail to compile; see CompilerGate.DiscardedStatus in tests/CMakeLists.txt.
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace skyrise {

Status WriteThing(const std::string& key);
Result<int> ComputeThing();

class Store {
 public:
  Status Delete(const std::string& key);
};

void Caller(Store* store, Store& ref) {
  WriteThing("a");
  ComputeThing();
  store->Delete("b");
  ref.Delete("c");
  Status st = WriteThing("checked");  // OK: result bound.
  (void)st;
  if (!WriteThing("used").ok()) return;  // OK: result consumed.
}

}  // namespace skyrise
