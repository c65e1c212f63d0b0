#include "chunk/chunk.hpp"

#include "common/strkey.hpp"

namespace cats::chunk {

// All member-function codegen for the supported key types lives here.
template struct BasicChunk<Key, Value, std::less<Key>>;
template struct BasicChunk<StrKey, Value, std::less<StrKey>>;

}  // namespace cats::chunk
