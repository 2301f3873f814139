// The global epoch counter's value type, shared by every layer that
// pins or resolves snapshots (docs/ARCHITECTURE.md §"Writes, epochs &
// snapshot isolation"). Lives in its own header so expr/exec/engine
// code can name an Epoch without pulling in the whole object store.
#ifndef VODAK_OBJSTORE_EPOCH_H_
#define VODAK_OBJSTORE_EPOCH_H_

#include <cstdint>

namespace vodak {

/// Monotone commit stamp. Epoch 0 is the empty store; every committed
/// mutation batch bumps it by one. A superseded version covers the
/// half-open epoch interval [begin, end).
using Epoch = uint64_t;

/// Sentinel passed to read APIs meaning "resolve to the newest
/// committed epoch at the moment the read takes the store lock".
inline constexpr Epoch kEpochLatest = ~static_cast<Epoch>(0);

}  // namespace vodak

#endif  // VODAK_OBJSTORE_EPOCH_H_
