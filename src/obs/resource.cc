#include "obs/resource.h"

#include "obs/context.h"

namespace gea::obs {

bool MemoryAccountingActive() { return CurrentContext().account != nullptr; }

void AccountAllocation(uint64_t bytes) {
  MemoryAccount* account = CurrentContext().account;
  if (account != nullptr && bytes != 0) account->OnAlloc(bytes);
}

void AccountFree(uint64_t bytes) {
  MemoryAccount* account = CurrentContext().account;
  if (account != nullptr && bytes != 0) account->OnFree(bytes);
}

}  // namespace gea::obs
